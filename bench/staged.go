package main

// The staged pass: one goroutine walks the start of the run's operation
// schedule and calls each layer's public functions directly, in pipeline
// order, against an in-memory twin of the federation — so the costs that hide
// inside Mediator.Query when seen from outside (parsing, the translation
// passes, the optimizer, plan execution, the frame codec, the catalog's
// insert) each get a number of their own.

import (
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/lqp"
	"repro/internal/mediator"
	"repro/internal/pqp"
	"repro/internal/sourceset"
	"repro/internal/translate"
	"repro/internal/wire"
)

const (
	// stagedBudget bounds the staged pass in time, stagedOps in operations
	// per client.
	stagedBudget = 2 * time.Second
	stagedOps    = 400
)

// stagedResult holds the staged pass's means.
type stagedResult struct {
	// Per query operation.
	parseUs float64
	// Per first-seen text.
	analyzeUs, interpretUs, optimizeUs float64
	// Per query operation: OpenPlan plus drain on the twin, the part of it
	// outside the twin's source calls, and what Mediator.Query adds on top of
	// parse, translation and execution.
	executeMs, coreSelfMs, mediatorSelfMs float64
	// Per row of the answers, through core.AppendFrame and core.DecodeFrame.
	encodeNsPerRow, decodeNsPerRow float64
	// Per insert operation, catalog.Database.Insert on a twin of the shard.
	catalogInsertMs float64
}

func staged(w *workload, nclients, opsPerClient int) (*stagedResult, error) {
	// The twin: every source unsharded, in memory, in process; a recorder of
	// its own times the source calls under OpenPlan.
	rec := newRecorder()
	rec.on.Store(true)
	lqps := make(map[string]lqp.LQP, len(w.spec.sources))
	for _, src := range w.spec.sources {
		name := src.db.Name()
		lqps[name] = sourceShim{&lqpShim{LocalLQP: lqp.NewLocal(src.db), rec: rec, layer: "source", label: name}}
	}
	reg := sourceset.NewRegistry()
	for i := 0; i < w.spec.registry.Len(); i++ {
		reg.Intern(w.spec.registry.Name(sourceset.ID(i)))
	}
	q := pqp.New(w.spec.schema, reg, nil, lqps)
	if err := q.CollectStats(); err != nil {
		return nil, err
	}
	svc := mediator.New(q, mediator.Config{Federation: w.spec.name})
	info, err := svc.OpenSession(wire.SessionOptions{})
	if err != nil {
		return nil, err
	}
	opts := translate.Options{
		Schema: w.spec.schema, Stats: q.Stats, CanPush: func(string) bool { return true },
		ExactResolver: q.Algebra().ResolverIsExact(),
	}
	twins := make([]*catalog.Database, 0, 2)
	if w.spec.writable {
		for shard := 0; shard < w.spec.sources[0].shards; shard++ {
			db, err := federation.Slice(w.spec.sources[0].db, shard, w.spec.sources[0].shards)
			if err != nil {
				return nil, err
			}
			twins = append(twins, db)
		}
	}

	var (
		out                                   stagedResult
		parse, analyze, interpret, optimize   time.Duration
		execute, sources, service, insertTook time.Duration
		encode, decode                        time.Duration
		queries, misses, inserts, rows        int
	)
	plans := make(map[string]*translate.Matrix)
	streams := make([]func() op, nclients)
	for c := range streams {
		streams[c] = w.stream(c, nclients)
	}
	began := time.Now()
	for i := 0; i < opsPerClient*nclients && time.Since(began) < stagedBudget; i++ {
		o := streams[i%nclients]()
		if o.insert {
			t0 := time.Now()
			if err := twins[o.shard].Insert("FACT", o.rows...); err != nil {
				return nil, err
			}
			insertTook += time.Since(t0)
			inserts++
			continue
		}
		queries++

		// Mediator.Query as a whole, on the twin, before the hand-run pipeline
		// on every other operation and after it on the rest, so that neither
		// always runs on the data the other has just warmed. Its plan cache
		// misses on the texts the pipeline below also translates.
		whole := func() error {
			t0 := time.Now()
			_, err := svc.Query(info.ID, o.text, true)
			service += time.Since(t0)
			return err
		}
		if queries%2 == 0 {
			if err := whole(); err != nil {
				return nil, err
			}
		}

		t0 := time.Now()
		e, err := translate.ParseExpr(o.text)
		if err != nil {
			return nil, err
		}
		parse += time.Since(t0)
		plan := plans[o.text]
		if plan == nil {
			misses++
			t0 = time.Now()
			pom, err := translate.Analyze(e)
			if err != nil {
				return nil, err
			}
			t1 := time.Now()
			half, err := translate.PassOne(pom, w.spec.schema)
			if err != nil {
				return nil, err
			}
			iom, err := translate.PassTwo(half, w.spec.schema)
			if err != nil {
				return nil, err
			}
			t2 := time.Now()
			if plan, err = translate.OptimizeWithOptions(iom, opts); err != nil {
				return nil, err
			}
			t3 := time.Now()
			analyze, interpret, optimize = analyze+t1.Sub(t0), interpret+t2.Sub(t1), optimize+t3.Sub(t2)
			if o.known {
				plans[o.text] = plan
			}
		}

		root := rec.root("staged")
		var answer *core.Relation
		t0 = time.Now()
		rec.onGoroutine(root.ref(), func() {
			var cur core.Cursor
			if cur, err = q.OpenPlan(plan); err == nil {
				answer, err = core.Drain(cur)
			}
		})
		took := time.Since(t0)
		if err != nil {
			return nil, err
		}
		execute += took
		var called []interval
		for _, s := range rec.take() {
			called = append(called, interval{s.Start, s.End})
		}
		sources += time.Duration(length(merged(called)))

		batch := core.FromRelation(answer)
		t0 = time.Now()
		frame := core.AppendFrame(nil, batch)
		t1 := time.Now()
		if _, err := core.DecodeFrame(frame, answer.Name, answer.Attrs, reg); err != nil {
			return nil, err
		}
		encode, decode = encode+t1.Sub(t0), decode+time.Since(t1)
		rows += len(answer.Tuples)
		if queries%2 == 1 {
			if err := whole(); err != nil {
				return nil, err
			}
		}
	}

	us := func(d time.Duration, n int) float64 { return per(float64(d)/1e3, n) }
	out.parseUs = us(parse, queries)
	out.analyzeUs, out.interpretUs, out.optimizeUs = us(analyze, misses), us(interpret, misses), us(optimize, misses)
	out.executeMs = us(execute, queries) / 1e3
	out.coreSelfMs = us(execute-sources, queries) / 1e3
	if self := service - parse - analyze - interpret - optimize - execute; self > 0 {
		out.mediatorSelfMs = us(self, queries) / 1e3
	}
	out.encodeNsPerRow, out.decodeNsPerRow = per(float64(encode), rows), per(float64(decode), rows)
	out.catalogInsertMs = us(insertTook, inserts) / 1e3
	return &out, nil
}
