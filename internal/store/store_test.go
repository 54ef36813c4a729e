package store

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/faultinject"
	"repro/internal/rel"
	"repro/internal/segment"
)

func seedDB() *catalog.Database {
	db := catalog.NewDatabase("CD")
	db.MustCreate("FIRM", rel.SchemaOf("FNAME", "CEO"), "FNAME")
	db.Insert("FIRM", rel.Tuple{rel.String("IBM"), rel.String("John Ackers")})
	return db
}

func tuple(i int) rel.Tuple {
	return rel.Tuple{rel.String(fmt.Sprintf("F%03d", i)), rel.String(fmt.Sprintf("CEO %d", i))}
}

// dump renders every relation cell-for-cell for whole-database comparison.
func dump(t *testing.T, db *catalog.Database) string {
	t.Helper()
	var sb strings.Builder
	for _, name := range db.Relations() {
		r, err := db.Snapshot(name)
		if err != nil {
			t.Fatal(err)
		}
		key, _ := db.Key(name)
		fmt.Fprintf(&sb, "%s %v key=%v\n", name, r.Schema.Attrs(), key)
		for _, tu := range r.Tuples {
			fmt.Fprintf(&sb, "  %v\n", tu)
		}
	}
	return sb.String()
}

func TestOpenSeedsAndReopens(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, "", seedDB(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreateRelation("DIVISION", rel.SchemaOf("FNAME", "DIV"), "FNAME", "DIV"); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert("FIRM", tuple(1), tuple(2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert("DIVISION", rel.Tuple{rel.String("IBM"), rel.String("storage")}); err != nil {
		t.Fatal(err)
	}
	want := dump(t, s.DB())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	back, err := Open(dir, "", nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if got := dump(t, back.DB()); got != want {
		t.Fatalf("recovered database differs:\n%s\nwant:\n%s", got, want)
	}
	if back.DB().Name() != "CD" {
		t.Fatalf("name = %q", back.DB().Name())
	}
	st := back.Stats()
	if st.ReplayRecords != 3 {
		t.Fatalf("replayed %d records, want 3", st.ReplayRecords)
	}
}

func TestInsertValidationNotLogged(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, "", seedDB(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Duplicate key and wrong degree must fail without poisoning the log.
	if err := s.Insert("FIRM", rel.Tuple{rel.String("IBM"), rel.String("x")}); err == nil {
		t.Fatal("duplicate key accepted")
	}
	if err := s.Insert("FIRM", rel.Tuple{rel.String("y")}); err == nil {
		t.Fatal("wrong degree accepted")
	}
	if err := s.Insert("FIRM", tuple(1)); err != nil {
		t.Fatal(err)
	}
	want := dump(t, s.DB())
	s.Close()
	back, err := Open(dir, "", nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if got := dump(t, back.DB()); got != want {
		t.Fatalf("recovered database differs after rejected writes:\n%s\nwant:\n%s", got, want)
	}
	if st := back.Stats(); st.ReplayRecords != 1 {
		t.Fatalf("replayed %d records, want 1", st.ReplayRecords)
	}
}

func TestCompactRotatesGenerations(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, "", seedDB(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := s.Insert("FIRM", tuple(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 15; i++ {
		if err := s.Insert("FIRM", tuple(i)); err != nil {
			t.Fatal(err)
		}
	}
	want := dump(t, s.DB())
	st := s.Stats()
	if st.Generation != 1 || st.Compactions != 1 {
		t.Fatalf("generation %d compactions %d", st.Generation, st.Compactions)
	}
	s.Close()

	// Old generation files are gone.
	if _, err := os.Stat(snapPath(dir, 0)); !os.IsNotExist(err) {
		t.Fatalf("snap-0 still present: %v", err)
	}
	if _, err := os.Stat(walPath(dir, 0)); !os.IsNotExist(err) {
		t.Fatalf("wal-0 still present: %v", err)
	}

	back, err := Open(dir, "", nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if got := dump(t, back.DB()); got != want {
		t.Fatalf("recovered database differs after compaction:\n%s\nwant:\n%s", got, want)
	}
	if bst := back.Stats(); bst.ReplayRecords != 5 {
		t.Fatalf("replayed %d records, want 5 (post-compaction tail only)", bst.ReplayRecords)
	}
}

func TestAutoCompact(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, "", seedDB(), Options{CompactBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := s.Insert("FIRM", tuple(i)); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Compactions == 0 {
		t.Fatal("no auto-compaction at a 256-byte threshold")
	}
	want := dump(t, s.DB())
	s.Close()
	back, err := Open(dir, "", nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if got := dump(t, back.DB()); got != want {
		t.Fatal("recovered database differs after auto-compaction")
	}
}

func TestFsyncIntervalMode(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, "", seedDB(), Options{Fsync: FsyncInterval, FsyncInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := s.Insert("FIRM", tuple(i)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for s.Stats().Syncs == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if s.Stats().Syncs == 0 {
		t.Fatal("interval syncer never fired")
	}
	want := dump(t, s.DB())
	s.Close()
	back, err := Open(dir, "", nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if got := dump(t, back.DB()); got != want {
		t.Fatal("recovered database differs in interval mode")
	}
}

func TestLogFailureLatchesReadOnly(t *testing.T) {
	dir := t.TempDir()
	profile := faultinject.DiskProfile{Seed: 3, ShortWriteEvery: 4}
	s, err := Open(dir, "", seedDB(), Options{
		WrapFile: func(f *os.File) segment.File { return faultinject.WrapFile(f, profile) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var failed bool
	for i := 0; i < 32 && !failed; i++ {
		failed = s.Insert("FIRM", tuple(i)) != nil
	}
	if !failed {
		t.Fatal("short-write cadence never surfaced an error")
	}
	if err := s.Insert("FIRM", tuple(100)); err == nil {
		t.Fatal("store accepted a write after a log failure")
	}
	if !s.Stats().Broken {
		t.Fatal("stats do not report the latched failure")
	}
	if _, _, err := s.DB().View("FIRM"); err != nil {
		t.Fatalf("read side must survive: %v", err)
	}
}

func TestSyncErrorFailsAck(t *testing.T) {
	dir := t.TempDir()
	profile := faultinject.DiskProfile{Seed: 1, SyncErrEvery: 3}
	s, err := Open(dir, "", seedDB(), Options{
		WrapFile: func(f *os.File) segment.File { return faultinject.WrapFile(f, profile) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var failed bool
	for i := 0; i < 8 && !failed; i++ {
		failed = s.Insert("FIRM", tuple(i)) != nil
	}
	if !failed {
		t.Fatal("fsync-error cadence never surfaced")
	}
	if err := s.Insert("FIRM", tuple(101)); err == nil {
		t.Fatal("store accepted a write after an fsync error")
	}
}

func TestRecoveryToleratesBitRotInLog(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, "", seedDB(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := s.Insert("FIRM", tuple(i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	// Read-time flips: recovery must never apply a rotted record — it
	// truncates at the first flip and yields the prefix before it.
	for seed := int64(0); seed < 4; seed++ {
		work := t.TempDir()
		copyDir(t, dir, work)
		back, err := Open(work, "", nil, Options{
			WrapReader: func(r io.Reader) io.Reader { return faultinject.NewFlipReader(r, 97, seed) },
		})
		if err != nil {
			// A flip inside the snapshot makes the whole generation
			// unreadable; with a single generation that is a hard error,
			// which is the correct refusal.
			continue
		}
		st := back.Stats()
		if st.ReplayRecords > 10 {
			t.Fatalf("seed %d: replayed %d records from a 10-record log", seed, st.ReplayRecords)
		}
		fr, _ := back.DB().Snapshot("FIRM")
		if len(fr.Tuples) > 11 {
			t.Fatalf("seed %d: recovered %d tuples", seed, len(fr.Tuples))
		}
		back.Close()
	}
}

func copyDir(t *testing.T, from, to string) {
	t.Helper()
	entries, err := os.ReadDir(from)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestParseFsyncMode(t *testing.T) {
	if m, err := ParseFsyncMode("always"); err != nil || m != FsyncAlways {
		t.Fatal("always")
	}
	if m, err := ParseFsyncMode("interval"); err != nil || m != FsyncInterval {
		t.Fatal("interval")
	}
	if _, err := ParseFsyncMode("sometimes"); err == nil {
		t.Fatal("bad mode accepted")
	}
}

// TestApplyRejectsRepeatedAttribute: replaying a create record whose
// attributes repeat fails with an error naming the attribute; it does not
// panic.
func TestApplyRejectsRepeatedAttribute(t *testing.T) {
	var body bytes.Buffer
	body.WriteByte(recCreate)
	if err := gob.NewEncoder(&body).Encode(createRecord{Name: "R", Attrs: []rel.Attr{{Name: "A"}, {Name: "A"}}}); err != nil {
		t.Fatal(err)
	}
	s := &Store{db: catalog.NewDatabase("X")}
	if err := s.apply(body.Bytes()); err == nil || !strings.Contains(err.Error(), `"A"`) {
		t.Fatalf("apply: %v, want an error naming the repeated attribute", err)
	}
}
