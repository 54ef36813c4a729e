package main

// The four workloads. Each one generates its federation from the seed, says
// how the federation is served, lists the query texts it repeats (each
// checked against the oracle and warmed before timing) and hands every
// closed-loop client its own deterministic stream of operations. README.md
// says why each exists and which layers it loads.

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/rel"
	"repro/internal/store"
	gen "repro/internal/workload"
)

// sizes fixes how much data the workloads hold. The sizes are part of the
// benchmark: changing one changes every number, so they change only in a
// change to the benchmark itself, never in one that claims a gain.
type sizes struct {
	facts, dims, mids, categories int   // star federation
	entities, entityCategories    int   // PENTITY federation
	ingestFacts                   int   // the star's facts at the start of an ingest-query epoch
	compactBytes                  int64 // ingest-query log rotation threshold
}

var fullSizes = sizes{
	facts: 4000, dims: 200, mids: 20, categories: 100,
	entities: 1200, entityCategories: 10,
	ingestFacts: 2000, compactBytes: 48 << 10,
}

// toySizes keep the package's tests under ten seconds.
var toySizes = sizes{
	facts: 240, dims: 10, mids: 4, categories: 10,
	entities: 120, entityCategories: 3,
	ingestFacts: 200, compactBytes: 4 << 10,
}

const (
	// entitySources is the fan-in of every merge-fanout Merge.
	entitySources = 6
	// insertBatch is the rows per insert of ingest-query.
	insertBatch = 8
	// spread is a multiplier coprime to every size above: x -> x*spread mod m
	// visits each residue once, which is how streams draw constants that never
	// repeat.
	spread = 1000003
)

// op is one client operation.
type op struct {
	insert bool
	// Query: the algebra text. known says the text is one of the workload's
	// repeated texts (a plan-cache hit once warmed); any other text has never
	// been sent before.
	text  string
	known bool
	// want is the expected answer. With atLeast, want.rows is a lower bound
	// and the checksum is not compared (the relation grows under the query).
	want    answerSum
	atLeast bool
	// Insert: the durable endpoint to write to and the FACT rows.
	shard int
	rows  []rel.Tuple
}

// workload is one generated benchmark workload.
type workload struct {
	seed  int64
	sizes sizes
	spec  federationSpec
	// texts are the repeated query texts.
	texts []string
	// want holds the oracle's fingerprint of every known text; setup fills it.
	want map[string]answerSum
	// learn derives from the oracle, once the known texts are verified, what
	// the streams need to predict the answers of first-seen texts.
	learn func(o *oracle, answers map[string]*core.Relation) error
	// stream returns client c's operation sequence, out of n clients.
	stream func(c, n int) func() op

	facts  []rel.Tuple  // the star's generated FACT relation
	point  core.Tuple   // tags of a point lookup's single row
	bounds []boundTable // per category, the rows a merge-fanout selection draws from
}

var workloadNames = []string{"serve-mix", "scan-join", "merge-fanout", "ingest-query"}

// runsInEpochs reports whether the named workload writes to its stores and is
// therefore measured in epochs, each on fresh stores (see run.go).
func runsInEpochs(name string) bool { return name == "ingest-query" }

func newWorkload(name string, seed int64, sz sizes) (*workload, error) {
	w := &workload{seed: seed, sizes: sz, want: make(map[string]answerSum)}
	switch name {
	case "serve-mix":
		w.star(sz.facts, 2, store.FsyncInterval, false)
		for _, i := range w.knownFacts() {
			w.texts = append(w.texts, pointLookup(w.facts[i]))
		}
		w.texts = append(w.texts, gen.StarQueries()...)
		w.learn = w.learnPoint
		w.stream = w.serveMix
	case "scan-join":
		w.star(sz.facts, 2, store.FsyncInterval, false)
		w.texts = []string{
			`(PFACT [DK = DK] PDIM) [CAT, DCAT]`,
			`((PFACT [MK = MK] PMID) [DK = DK] PDIM) [CAT, DCAT, GRADE]`,
			`((PFACT [MK = MK] PMID) [DK = DK] PDIM) [DCAT, GRADE]`,
		}
		w.stream = w.scanJoin
	case "merge-fanout":
		w.entities()
		w.learn = w.learnBounds
		w.stream = w.mergeFanout
	case "ingest-query":
		// One replica: the system has no write replication, so writing twice
		// would measure the benchmark's own fan-out.
		w.star(sz.ingestFacts, 1, store.FsyncAlways, true)
		w.texts = []string{pointLookup(w.facts[0]), `((PFACT [CAT = "cat3"]) [VAL >= 5000]) [VAL]`}
		w.learn = w.learnPoint
		w.stream = w.ingestQuery
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	return w, nil
}

// star generates the star federation: FD hash-sharded two ways on durable
// stores, DD and MD single in-memory endpoints.
func (w *workload) star(facts, replicas int, fsync store.FsyncMode, writable bool) {
	s := gen.NewStar(gen.StarConfig{
		Facts: facts, Dims: w.sizes.dims, Mids: w.sizes.mids, Categories: w.sizes.categories, Seed: w.seed,
	})
	_, w.facts, _ = s.FD.View("FACT")
	fd := sourceSpec{db: s.FD, shards: 2, replicas: replicas, durable: true, fsync: fsync, compactBytes: w.sizes.compactBytes}
	w.spec = federationSpec{
		name: "star", schema: s.Schema, registry: s.Registry, writable: writable,
		sources: []sourceSpec{fd, {db: s.DD, shards: 1, replicas: 1}, {db: s.MD, shards: 1, replicas: 1}},
	}
}

// entities generates the PENTITY federation: overlapping fragments of one
// entity set, one in-memory endpoint per source.
func (w *workload) entities() {
	f := gen.New(gen.Config{
		Databases: entitySources, Entities: w.sizes.entities, Overlap: 0.5,
		Categories: w.sizes.entityCategories, Seed: w.seed,
	})
	w.spec = federationSpec{name: "entities", schema: f.Schema, registry: f.Registry}
	for _, db := range f.Databases {
		w.spec.sources = append(w.spec.sources, sourceSpec{db: db, shards: 1, replicas: 1})
	}
	for k := 0; k < w.sizes.entityCategories; k++ {
		w.texts = append(w.texts, boundText(k, 0))
	}
	w.texts = append(w.texts,
		`(PENTITY [CAT = "cat1"]) [KEY, CAT, V0]`,
		`(PENTITY [CAT = "cat2"]) [KEY, V1, V3]`,
	)
}

// clientRand seeds client c's generator from the workload seed.
func (w *workload) clientRand(c int) *rand.Rand {
	return rand.New(rand.NewSource(w.seed*spread + int64(c)))
}

// pointLookup is the pruned point lookup of one FACT row: an equality on the
// placement key, so the scatter touches one shard.
func pointLookup(fact rel.Tuple) string {
	return fmt.Sprintf(`(PFACT [FK = %q]) [FK, CAT, VAL]`, fact[0].Str())
}

// knownFacts indexes the facts whose point lookups serve-mix repeats.
func (w *workload) knownFacts() []int {
	return []int{0, len(w.facts) / 2, len(w.facts) - 1}
}

// learnPoint takes the tags of a point lookup's row from the oracle's answer
// to the first known lookup, and proves the prediction on every known one.
func (w *workload) learnPoint(_ *oracle, answers map[string]*core.Relation) error {
	first := pointLookup(w.facts[0])
	rep := answers[first]
	if len(rep.Tuples) != 1 || len(rep.Tuples[0]) != 3 {
		return fmt.Errorf("%s: oracle answers %d rows, want one of three cells", first, len(rep.Tuples))
	}
	w.point = rep.Tuples[0]
	s := newSummer(w.spec.registry)
	for _, i := range w.knownFacts() {
		text := pointLookup(w.facts[i])
		if want, ok := w.want[text]; ok && w.wantPoint(s, w.facts[i]) != want {
			return fmt.Errorf("%s: predicted answer differs from the oracle's", text)
		}
	}
	return nil
}

// wantPoint predicts the answer to pointLookup(fact): the row's FK, CAT and
// VAL under the learned tags.
func (w *workload) wantPoint(s *summer, fact rel.Tuple) answerSum {
	row := append(core.Tuple(nil), w.point...)
	row[0].D, row[1].D, row[2].D = fact[0], fact[3], fact[4]
	return answerSum{rows: 1, sum: s.row(row)}
}

// freshFact draws the x-th never-repeated fact index, skipping the known ones.
func (w *workload) freshFact(x int) int {
	m := len(w.facts)
	i := 1 + (x*spread)%(m-3)
	if i >= m/2 {
		i++
	}
	return i
}

// serveMix: seven of eight operations repeat a known text, the eighth is a
// point lookup nobody has sent before.
func (w *workload) serveMix(c, n int) func() op {
	rng, s, i, fresh := w.clientRand(c), newSummer(w.spec.registry), 0, 0
	return func() op {
		i++
		if i%8 == 0 {
			fact := w.facts[w.freshFact(fresh*n+c)]
			fresh++
			return op{text: pointLookup(fact), want: w.wantPoint(s, fact)}
		}
		text := w.texts[rng.Intn(len(w.texts))]
		return op{text: text, known: true, want: w.want[text]}
	}
}

// scanJoin: unselective plans, every text known.
func (w *workload) scanJoin(c, n int) func() op {
	rng := w.clientRand(c)
	return func() op {
		text := w.texts[rng.Intn(len(w.texts))]
		return op{text: text, known: true, want: w.want[text]}
	}
}

// boundText is a merge-fanout selection: one category, keys from a bound up.
func boundText(category, bound int) string {
	return fmt.Sprintf(`(PENTITY [CAT = "cat%d"]) [KEY >= "E%06d"]`, category, bound)
}

// boundTable predicts boundText(category, b) for every b: the rows of
// boundText(category, 0) by ascending key, each with the fingerprint of the
// rows from it to the end. A selection's tags depend only on the row's own
// cells, so the answer for a higher bound is a suffix of this one.
type boundTable struct {
	keys   []string
	suffix []uint64
}

func (t boundTable) want(bound int) answerSum {
	at := sort.SearchStrings(t.keys, fmt.Sprintf("E%06d", bound))
	if at == len(t.keys) {
		return answerSum{}
	}
	return answerSum{rows: len(t.keys) - at, sum: t.suffix[at]}
}

// learnBounds builds every category's boundTable from the oracle and proves
// the suffix rule on one fresh bound per category.
func (w *workload) learnBounds(o *oracle, answers map[string]*core.Relation) error {
	s := newSummer(w.spec.registry)
	w.bounds = make([]boundTable, w.sizes.entityCategories)
	for k := range w.bounds {
		all := answers[boundText(k, 0)]
		sort.Slice(all.Tuples, func(i, j int) bool { return all.Tuples[i][0].D.Str() < all.Tuples[j][0].D.Str() })
		t := boundTable{keys: make([]string, len(all.Tuples)), suffix: make([]uint64, len(all.Tuples))}
		var sum uint64
		for i := len(all.Tuples) - 1; i >= 0; i-- {
			sum += s.row(all.Tuples[i])
			t.keys[i], t.suffix[i] = all.Tuples[i][0].D.Str(), sum
		}
		w.bounds[k] = t

		bound := w.sizes.entities / 2
		part, err := o.answer(boundText(k, bound))
		if err != nil {
			return err
		}
		if t.want(bound) != s.relation(part) {
			return fmt.Errorf("%s: predicted answer differs from the oracle's", boundText(k, bound))
		}
	}
	return nil
}

// mergeFanout: half the operations repeat a known text, half select from a
// bound nobody has sent before, so translation runs for a six-way mapping.
func (w *workload) mergeFanout(c, n int) func() op {
	rng, i, fresh := w.clientRand(c), 0, 0
	return func() op {
		i++
		if i%2 == 0 {
			x := fresh*n + c
			fresh++
			k := x % len(w.bounds)
			bound := 1 + ((x/len(w.bounds))*spread)%(w.sizes.entities-1)
			return op{text: boundText(k, bound), want: w.bounds[k].want(bound)}
		}
		text := w.texts[rng.Intn(len(w.texts))]
		return op{text: text, known: true, want: w.want[text]}
	}
}

// ingestQuery: four inserts of eight keyed FACT rows, each batch routed to
// the shard its keys hash to, then one query through the mediator —
// alternately the lookup of a key this client has just had acknowledged,
// which must return exactly that row, and a category selection, which may
// only have grown.
func (w *workload) ingestQuery(c, n int) func() op {
	rng, s := w.clientRand(c), newSummer(w.spec.registry)
	var i, key int
	var last rel.Tuple
	selection := w.texts[1]
	return func() op {
		i++
		switch {
		case i%5 != 0:
			shard := i % 2
			rows := make([]rel.Tuple, 0, insertBatch)
			for len(rows) < insertBatch {
				fk := rel.String(fmt.Sprintf("N%d-%08d", c, key))
				key++
				if federation.ShardOf(federation.ShardHash(fk), 2) != shard {
					continue
				}
				rows = append(rows, rel.Tuple{
					fk,
					rel.String(fmt.Sprintf("D%04d", rng.Intn(w.sizes.dims))),
					rel.String(fmt.Sprintf("M%04d", rng.Intn(w.sizes.mids))),
					rel.String(fmt.Sprintf("cat%d", rng.Intn(w.sizes.categories))),
					rel.Int(int64(rng.Intn(10_000))),
					rel.String(fmt.Sprintf("pad-%s-%024d", fk.Str(), key)),
				})
			}
			last = rows[0]
			return op{insert: true, shard: shard, rows: rows}
		case i%10 == 0:
			return op{text: selection, known: true, want: w.want[selection], atLeast: true}
		default:
			return op{text: pointLookup(last), want: w.wantPoint(s, last)}
		}
	}
}
