// Package store gives an LQP node crash-safe persistence: an append-only,
// CRC32C-checksummed write-ahead segment log of mutations plus periodically
// compacted snapshots, in one data directory.
//
// Layout (all inside the data dir):
//
//	snap-<gen>     headered catalog snapshot (catalog.EncodeSnapshot)
//	wal-<gen>.seg  segment log of mutations since snap-<gen>
//
// A mutation is one segment record (see internal/segment for the framing):
//
//	+----------+-----------------------------------------+
//	| type (1) | body                                    |
//	+----------+-----------------------------------------+
//
//	type 1  create: gob{Name, Attrs, Key}
//	type 2  insert: uvarint len + relation name + plain columnar frame
//	        (rel/codec.go — the same 0xC1 frame the wire codec ships)
//
// The write path is: apply the mutation to the in-memory catalog (which
// validates degree and key constraints), append the record to the log, then
// fsync per policy — FsyncAlways before acknowledging, FsyncInterval on a
// timer. A log failure latches the store read-only: nothing is acknowledged
// that later writes could reorder around, so the log is always a prefix of
// acknowledged mutations in acknowledgment order.
//
// Recovery (Open on a non-empty dir) picks the newest generation whose
// snapshot decodes cleanly, replays that generation's log, truncates the log
// at the first torn or corrupt record (segment.CorruptError), and resumes
// appending at the clean tail. The invariant the kill-matrix tests
// (recovery_test.go) enforce at every crash point: the recovered database
// equals the seed plus exactly a prefix of the acknowledged mutations —
// never a reordered, duplicated, or corrupt state — and with FsyncAlways the
// prefix includes every acknowledged mutation.
//
// Compact rotates generations atomically: sync the log, write snap-<gen+1>
// with segment.WriteFileSync (temp + fsync + rename + dir fsync), open
// wal-<gen+1>.seg, fsync the directory, then best-effort delete the old
// generation. A crash between any two steps leaves either generation fully
// recoverable.
package store

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/rel"
	"repro/internal/segment"
)

// Record type tags.
const (
	recCreate = 1
	recInsert = 2
)

// FsyncMode selects the durability policy for log appends.
type FsyncMode int

const (
	// FsyncAlways syncs the log before every mutation is acknowledged:
	// an acked write survives any crash.
	FsyncAlways FsyncMode = iota
	// FsyncInterval batches syncs on a timer: an acked write from the last
	// interval may be lost to a crash, but recovery still yields a clean
	// prefix of acked writes.
	FsyncInterval
)

func (m FsyncMode) String() string {
	switch m {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	}
	return fmt.Sprintf("FsyncMode(%d)", int(m))
}

// ParseFsyncMode maps the -fsync flag values.
func ParseFsyncMode(s string) (FsyncMode, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	}
	return 0, fmt.Errorf("store: unknown fsync mode %q (want always or interval)", s)
}

// Options configures a Store.
type Options struct {
	// Fsync is the append durability policy; default FsyncAlways.
	Fsync FsyncMode
	// FsyncInterval is the timer period for FsyncInterval; default 100ms.
	FsyncInterval time.Duration
	// CompactBytes rolls the log into a new snapshot generation once it
	// grows past this size; default 64 MiB. Zero uses the default; negative
	// disables auto-compaction.
	CompactBytes int64
	// WrapFile, when set, wraps the write-ahead log file handle — the seam
	// internal/faultinject/disk uses to inject short writes and fsync
	// errors.
	WrapFile func(f *os.File) segment.File
	// WrapReader, when set, wraps recovery-time readers — the seam for
	// injecting read-time bit flips.
	WrapReader func(r io.Reader) io.Reader
}

func (o *Options) fill() {
	if o.FsyncInterval <= 0 {
		o.FsyncInterval = 100 * time.Millisecond
	}
	if o.CompactBytes == 0 {
		o.CompactBytes = 64 << 20
	}
}

// Stats is a point-in-time counter snapshot, surfaced as the V$STORE virtual
// table and the polygen_store_* metrics.
type Stats struct {
	Dir            string
	Generation     int64
	Appends        int64 // records appended this process
	AppendedBytes  int64
	Syncs          int64
	Compactions    int64
	ReplayRecords  int64 // records replayed at Open
	ReplayBytes    int64 // clean log bytes replayed at Open
	TruncatedBytes int64 // torn/corrupt bytes discarded at Open
	LogBytes       int64 // current log size (clean tail)
	Broken         bool  // a log failure latched the store read-only
}

// Store is a catalog.Database with a write-ahead log underneath it.
type Store struct {
	dir  string
	opts Options
	db   *catalog.Database

	mu     sync.Mutex // serializes mutations, rotation, and close
	wal    *segment.Writer
	walRaw segment.File
	gen    int64
	dirty  atomic.Bool // appended since last sync (interval mode)
	broken error       // latched log failure; store is read-only

	stopSync chan struct{} // interval-mode syncer
	syncDone chan struct{}

	appends       atomic.Int64
	appendedBytes atomic.Int64
	syncs         atomic.Int64
	compactions   atomic.Int64
	replayRecords int64
	replayBytes   int64
	truncated     int64
}

func snapPath(dir string, gen int64) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%d", gen))
}

func walPath(dir string, gen int64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%d.seg", gen))
}

// Open recovers (or initializes) a store in dir. On an empty dir the store
// starts from seed when given one, or an empty database named name
// otherwise, and writes the generation-0 snapshot so the directory is
// self-describing from the first byte. On a non-empty dir, seed is ignored
// and the state is recovered from the newest valid generation.
func Open(dir, name string, seed *catalog.Database, opts Options) (*Store, error) {
	opts.fill()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{dir: dir, opts: opts}

	gens, err := listGenerations(dir)
	if err != nil {
		return nil, err
	}
	if len(gens) == 0 {
		// Fresh directory: seed generation 0.
		if seed == nil {
			seed = catalog.NewDatabase(name)
		}
		s.db = seed
		s.gen = 0
		data, err := seed.EncodeSnapshot()
		if err != nil {
			return nil, err
		}
		if err := segment.WriteFileSync(snapPath(dir, 0), data); err != nil {
			return nil, err
		}
		if err := s.openWAL(0, 0); err != nil {
			return nil, err
		}
	} else if err := s.recover(gens); err != nil {
		return nil, err
	}

	if s.opts.Fsync == FsyncInterval {
		s.stopSync = make(chan struct{})
		s.syncDone = make(chan struct{})
		go s.syncLoop()
	}
	return s, nil
}

// listGenerations returns the generation numbers that have a snapshot file,
// ascending.
func listGenerations(dir string) ([]int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var gens []int64
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), "snap-") {
			continue
		}
		g, err := strconv.ParseInt(strings.TrimPrefix(e.Name(), "snap-"), 10, 64)
		if err != nil {
			continue // temp files from WriteFileSync, foreign litter
		}
		gens = append(gens, g)
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	return gens, nil
}

// recover loads the newest generation whose snapshot decodes, replays its
// log to the clean tail, truncates the torn remainder, and opens the log for
// append.
func (s *Store) recover(gens []int64) error {
	var db *catalog.Database
	var gen int64 = -1
	for i := len(gens) - 1; i >= 0; i-- {
		d, err := s.openSnapshot(snapPath(s.dir, gens[i]))
		if err == nil {
			db, gen = d, gens[i]
			break
		}
		// A rotted snapshot: fall back to the previous generation, whose
		// snapshot + full log still reconstruct a (possibly older) valid
		// prefix. WriteFileSync makes torn snapshots impossible; this path
		// is bit rot or foreign truncation.
	}
	if db == nil {
		return fmt.Errorf("store: %s: no readable snapshot among generations %v", s.dir, gens)
	}
	s.db, s.gen = db, gen

	tail, err := s.replay(walPath(s.dir, gen))
	if err != nil {
		return err
	}
	return s.openWAL(gen, tail)
}

func (s *Store) openSnapshot(path string) (*catalog.Database, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var r io.Reader = f
	if s.opts.WrapReader != nil {
		r = s.opts.WrapReader(r)
	}
	return catalog.ReadSnapshot(r)
}

// replay applies the log's clean prefix to the recovered database and
// truncates the file at the first torn or corrupt record. A missing log file
// (crash between snapshot rename and log creation during rotation) is an
// empty log.
func (s *Store) replay(path string) (int64, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	var r io.Reader = f
	if s.opts.WrapReader != nil {
		r = s.opts.WrapReader(r)
	}
	tail, scanErr := segment.Scan(path, r, func(off int64, payload []byte) error {
		if err := s.apply(payload); err != nil {
			// A record that cannot apply was never acknowledged (appends are
			// validated before logging), so it marks the same kind of
			// untrustworthy tail as a failed checksum.
			return &segment.CorruptError{Path: path, Offset: off, Reason: err.Error()}
		}
		s.replayRecords++
		return nil
	})
	f.Close()
	if scanErr != nil {
		if _, ok := scanErr.(*segment.CorruptError); !ok {
			return 0, scanErr
		}
		size := int64(0)
		if fi, err := os.Stat(path); err == nil {
			size = fi.Size()
		}
		s.truncated = size - tail
		if err := os.Truncate(path, tail); err != nil {
			return 0, fmt.Errorf("store: truncating %s at %d: %w", path, tail, err)
		}
	}
	s.replayBytes = tail
	return tail, nil
}

// apply replays one mutation record into the in-memory catalog.
func (s *Store) apply(payload []byte) error {
	if len(payload) == 0 {
		return fmt.Errorf("empty record")
	}
	body := payload[1:]
	switch payload[0] {
	case recCreate:
		var c createRecord
		if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&c); err != nil {
			return fmt.Errorf("create record: %w", err)
		}
		schema, err := rel.MakeSchema(c.Attrs...)
		if err != nil {
			return fmt.Errorf("create record for %q: %w", c.Name, err)
		}
		return s.db.Create(c.Name, schema, c.Key...)
	case recInsert:
		name, frame, err := splitInsert(body)
		if err != nil {
			return err
		}
		schema, _, err := s.db.View(name)
		if err != nil {
			return err
		}
		b, err := rel.DecodeFrame(frame, schema)
		if err != nil {
			return err
		}
		return s.db.Insert(name, b.Rows()...)
	}
	return fmt.Errorf("unknown record type %d", payload[0])
}

type createRecord struct {
	Name  string
	Attrs []rel.Attr
	Key   []string
}

func splitInsert(body []byte) (string, []byte, error) {
	l, n := binary.Uvarint(body)
	if n <= 0 || l > uint64(len(body)-n) {
		return "", nil, fmt.Errorf("insert record: bad name length")
	}
	return string(body[n : n+int(l)]), body[n+int(l):], nil
}

// openWAL opens (creating if needed) the generation's log for append at
// offset tail.
func (s *Store) openWAL(gen, tail int64) error {
	f, err := os.OpenFile(walPath(s.dir, gen), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	var sf segment.File = f
	if s.opts.WrapFile != nil {
		sf = s.opts.WrapFile(f)
	}
	s.walRaw = sf
	s.wal = segment.NewWriter(sf, tail)
	// The log file itself must be findable after a crash.
	return segment.SyncDir(s.dir)
}

// DB returns the in-memory catalog. Mutate only through the store; reads
// (Snapshot, View, query execution) are safe directly.
func (s *Store) DB() *catalog.Database { return s.db }

// Dir returns the data directory.
func (s *Store) Dir() string { return s.dir }

// CreateRelation creates a relation durably.
func (s *Store) CreateRelation(name string, schema *rel.Schema, key ...string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.broken != nil {
		return s.broken
	}
	if err := s.db.Create(name, schema, key...); err != nil {
		return err
	}
	var body bytes.Buffer
	body.WriteByte(recCreate)
	if err := gob.NewEncoder(&body).Encode(createRecord{Name: name, Attrs: schema.Attrs(), Key: key}); err != nil {
		return err
	}
	return s.appendLocked(body.Bytes())
}

// Insert inserts tuples durably: validated against the catalog, logged, and
// — under FsyncAlways — synced before returning nil.
func (s *Store) Insert(name string, tuples ...rel.Tuple) error {
	if len(tuples) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.broken != nil {
		return s.broken
	}
	schema, _, err := s.db.View(name)
	if err != nil {
		return err
	}
	if err := s.db.Insert(name, tuples...); err != nil {
		return err
	}
	payload := make([]byte, 0, 64+16*len(tuples))
	payload = append(payload, recInsert)
	payload = binary.AppendUvarint(payload, uint64(len(name)))
	payload = append(payload, name...)
	payload = rel.AppendFrame(payload, rel.FromTuples(schema, tuples))
	return s.appendLocked(payload)
}

// appendLocked logs one validated record and applies the fsync policy;
// callers hold s.mu. Any log failure latches the store read-only: the
// in-memory state may now be ahead of the log, and acknowledging further
// writes would break the prefix invariant.
func (s *Store) appendLocked(payload []byte) error {
	if _, err := s.wal.Append(payload); err != nil {
		s.broken = fmt.Errorf("store: log failed, store is read-only: %w", err)
		return s.broken
	}
	s.appends.Add(1)
	s.appendedBytes.Add(int64(len(payload)))
	switch s.opts.Fsync {
	case FsyncAlways:
		if err := s.wal.Sync(); err != nil {
			s.broken = fmt.Errorf("store: log failed, store is read-only: %w", err)
			return s.broken
		}
		s.syncs.Add(1)
	case FsyncInterval:
		// Flush to the OS now (a process crash loses nothing; only a system
		// crash can lose the tail), fsync on the timer.
		if err := s.wal.Flush(); err != nil {
			s.broken = fmt.Errorf("store: log failed, store is read-only: %w", err)
			return s.broken
		}
		s.dirty.Store(true)
	}
	if s.opts.CompactBytes > 0 && s.wal.Offset() >= s.opts.CompactBytes {
		return s.compactLocked()
	}
	return nil
}

// Sync forces the log to disk.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.syncLocked()
}

func (s *Store) syncLocked() error {
	if s.broken != nil {
		return s.broken
	}
	if err := s.wal.Sync(); err != nil {
		s.broken = fmt.Errorf("store: log failed, store is read-only: %w", err)
		return s.broken
	}
	s.syncs.Add(1)
	s.dirty.Store(false)
	return nil
}

func (s *Store) syncLoop() {
	defer close(s.syncDone)
	t := time.NewTicker(s.opts.FsyncInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if s.dirty.Load() {
				s.Sync()
			}
		case <-s.stopSync:
			return
		}
	}
}

// Compact rotates to a new generation: snapshot the current state, start an
// empty log, drop the old generation.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.broken != nil {
		return s.broken
	}
	return s.compactLocked()
}

func (s *Store) compactLocked() error {
	// 1. Everything the snapshot will contain must be on disk first, so a
	//    crash before the rename still recovers the old generation fully.
	if err := s.syncLocked(); err != nil {
		return err
	}
	data, err := s.db.EncodeSnapshot()
	if err != nil {
		return err
	}
	next := s.gen + 1
	// 2. Atomic, durable snapshot for the new generation.
	if err := segment.WriteFileSync(snapPath(s.dir, next), data); err != nil {
		return err
	}
	// 3. Swap logs. From here, recovery prefers generation next.
	old, oldGen := s.walRaw, s.gen
	if err := s.openWAL(next, 0); err != nil {
		// The new snapshot is durable and its (absent) log is empty, so the
		// store on disk is already consistent at generation next; only this
		// process is wedged.
		s.broken = fmt.Errorf("store: opening log for generation %d: %w", next, err)
		return s.broken
	}
	s.gen = next
	old.Close()
	// 4. Old generation is now shadowed; deleting it is cleanup, not
	//    correctness.
	os.Remove(snapPath(s.dir, oldGen))
	os.Remove(walPath(s.dir, oldGen))
	segment.SyncDir(s.dir)
	s.compactions.Add(1)
	return nil
}

// Close syncs and closes the log. The store must not be used afterwards.
func (s *Store) Close() error {
	if s.stopSync != nil {
		close(s.stopSync)
		<-s.syncDone
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	syncErr := error(nil)
	if s.broken == nil {
		syncErr = s.syncLocked()
	}
	closeErr := s.walRaw.Close()
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}

// Stats returns a point-in-time counter snapshot.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	gen := s.gen
	logBytes := int64(0)
	if s.wal != nil {
		logBytes = s.wal.Offset()
	}
	broken := s.broken != nil
	s.mu.Unlock()
	return Stats{
		Dir:            s.dir,
		Generation:     gen,
		Appends:        s.appends.Load(),
		AppendedBytes:  s.appendedBytes.Load(),
		Syncs:          s.syncs.Load(),
		Compactions:    s.compactions.Load(),
		ReplayRecords:  s.replayRecords,
		ReplayBytes:    s.replayBytes,
		TruncatedBytes: s.truncated,
		LogBytes:       logBytes,
		Broken:         broken,
	}
}
