package catalog

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/rel"
	"repro/internal/segment"
)

func snapshotDB() *Database {
	db := NewDatabase("CD")
	db.MustCreate("FIRM", rel.SchemaOf("FNAME", "CEO"), "FNAME")
	db.Insert("FIRM",
		rel.Tuple{rel.String("IBM"), rel.String("John Ackers")},
		rel.Tuple{rel.String("DEC"), rel.String("Ken Olsen")},
	)
	db.MustCreate("FINANCE", rel.SchemaOf("FNAME", "YR", "PROFIT"), "FNAME", "YR")
	db.Insert("FINANCE", rel.Tuple{rel.String("IBM"), rel.Int(1989), rel.Float(5.5e9)})
	return db
}

func TestSnapshotRoundTrip(t *testing.T) {
	db := snapshotDB()
	var buf bytes.Buffer
	if err := db.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name() != "CD" {
		t.Errorf("name = %q", back.Name())
	}
	rels := back.Relations()
	if len(rels) != 2 || rels[0] != "FINANCE" || rels[1] != "FIRM" {
		t.Errorf("relations = %v", rels)
	}
	firm, err := back.Snapshot("FIRM")
	if err != nil {
		t.Fatal(err)
	}
	orig, _ := db.Snapshot("FIRM")
	if firm.Cardinality() != 2 {
		t.Fatalf("cardinality = %d", firm.Cardinality())
	}
	for i := range orig.Tuples {
		if !firm.Tuples[i].Equal(orig.Tuples[i]) {
			t.Errorf("tuple %d changed: %v vs %v", i, firm.Tuples[i], orig.Tuples[i])
		}
	}
	// Keys survive: duplicate insert must fail.
	if err := back.Insert("FIRM", rel.Tuple{rel.String("IBM"), rel.String("x")}); err == nil {
		t.Error("key constraint lost in snapshot")
	}
	// Value kinds survive.
	fin, _ := back.Snapshot("FINANCE")
	if fin.Tuples[0][1].Kind() != rel.KindInt || fin.Tuples[0][2].Kind() != rel.KindFloat {
		t.Error("value kinds lost")
	}
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	db := snapshotDB()
	path := filepath.Join(t.TempDir(), "cd.snapshot")
	if err := db.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name() != "CD" || len(back.Relations()) != 2 {
		t.Error("file round trip lost data")
	}
}

func TestSnapshotErrors(t *testing.T) {
	if _, err := ReadSnapshot(strings.NewReader("garbage")); err == nil {
		t.Error("garbage snapshot accepted")
	}
	if _, err := OpenFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing file accepted")
	}
}

// TestSnapshotLegacyHeaderless: a headerless bare-gob snapshot, the
// on-disk format from before the integrity header existed, is rejected
// with a typed error rather than decoded.
func TestSnapshotLegacyHeaderless(t *testing.T) {
	var raw bytes.Buffer
	if err := gob.NewEncoder(&raw).Encode(snapshotDB().snapshot()); err != nil {
		t.Fatal(err)
	}
	_, err := ReadSnapshot(&raw)
	var ce *segment.CorruptError
	if !errors.As(err, &ce) || ce.Offset != 0 {
		t.Fatalf("headerless snapshot: want CorruptError at offset 0, got %v", err)
	}
}

func TestSnapshotTruncated(t *testing.T) {
	db := snapshotDB()
	data, err := db.EncodeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Torn header and torn payload both name the damage offset.
	for _, cut := range []int{snapshotHeaderSize - 1, snapshotHeaderSize + 5, len(data) - 1} {
		_, err := ReadSnapshot(bytes.NewReader(data[:cut]))
		var ce *segment.CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("truncate at %d: want CorruptError, got %v", cut, err)
		}
		if ce.Offset < 0 || ce.Offset > int64(cut) {
			t.Fatalf("truncate at %d: offset %d out of range", cut, ce.Offset)
		}
	}
	// A cut shorter than the magic is a torn header too.
	_, err = ReadSnapshot(bytes.NewReader(data[:4]))
	var ce *segment.CorruptError
	if !errors.As(err, &ce) || ce.Offset != 4 {
		t.Fatalf("4-byte prefix: want CorruptError at offset 4, got %v", err)
	}
}

func TestSnapshotBitRot(t *testing.T) {
	db := snapshotDB()
	data, err := db.EncodeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	rotted := append([]byte(nil), data...)
	rotted[snapshotHeaderSize+7] ^= 0x10
	_, rerr := ReadSnapshot(bytes.NewReader(rotted))
	var ce *segment.CorruptError
	if !errors.As(rerr, &ce) || !strings.Contains(ce.Reason, "checksum") {
		t.Fatalf("want checksum CorruptError, got %v", rerr)
	}
}

func TestSnapshotWrongVersion(t *testing.T) {
	db := snapshotDB()
	data, _ := db.EncodeSnapshot()
	data[6] = 99
	_, err := ReadSnapshot(bytes.NewReader(data))
	var ce *segment.CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("want CorruptError, got %v", err)
	}
	if ce.Offset != 6 || !strings.Contains(ce.Reason, "version 99") || !strings.Contains(ce.Reason, fmt.Sprintf("want %d", snapshotVersion)) {
		t.Fatalf("want version error at offset 6 naming 99 and %d, got %v", snapshotVersion, err)
	}
}

func TestOpenFileNamesPath(t *testing.T) {
	db := snapshotDB()
	data, _ := db.EncodeSnapshot()
	path := filepath.Join(t.TempDir(), "cd.snapshot")
	if err := os.WriteFile(path, data[:len(data)-2], 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenFile(path)
	var ce *segment.CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("want CorruptError, got %v", err)
	}
	if ce.Path != path {
		t.Fatalf("corrupt error names %q, want %q", ce.Path, path)
	}
}

// TestSnapshotRottedLengthAllocatesWhatArrives: a bare header claiming a
// MaxRecord payload fails as a torn payload without allocating the
// gigabyte it claims.
func TestSnapshotRottedLengthAllocatesWhatArrives(t *testing.T) {
	hdr := frameSnapshot(nil)
	binary.LittleEndian.PutUint64(hdr[7:15], segment.MaxRecord)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadSnapshot(bytes.NewReader(hdr))
	runtime.ReadMemStats(&after)
	want := segment.CorruptError{
		Path:   "snapshot",
		Offset: snapshotHeaderSize,
		Reason: fmt.Sprintf("torn payload (0 of %d bytes)", segment.MaxRecord),
	}
	var ce *segment.CorruptError
	if !errors.As(err, &ce) || *ce != want {
		t.Fatalf("got %v, want %v", err, &want)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 8<<20 {
		t.Fatalf("reading a %d-byte snapshot allocated %d bytes", len(hdr), n)
	}
}

// TestSnapshotInvalidPayloadIsCorrupt: a payload whose checksum holds but
// which is not a valid database — undecodable, a repeated attribute, a key
// outside the schema, a duplicate key — is a *segment.CorruptError.
func TestSnapshotInvalidPayloadIsCorrupt(t *testing.T) {
	encode := func(snap dbSnapshot) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	ab := []rel.Attr{{Name: "A"}, {Name: "B"}}
	row := rel.Tuple{rel.Int(1), rel.Int(2)}
	for name, payload := range map[string][]byte{
		"garbage":       []byte("not gob"),
		"repeated attr": encode(dbSnapshot{Name: "X", Relations: []relSnapshot{{Name: "R", Attrs: []rel.Attr{{Name: "A"}, {Name: "A"}}}}}),
		"foreign key":   encode(dbSnapshot{Name: "X", Relations: []relSnapshot{{Name: "R", Attrs: ab, Key: []string{"Z"}}}}),
		"twice":         encode(dbSnapshot{Name: "X", Relations: []relSnapshot{{Name: "R", Attrs: ab}, {Name: "R", Attrs: ab}}}),
		"duplicate key": encode(dbSnapshot{Name: "X", Relations: []relSnapshot{{Name: "R", Attrs: ab, Key: []string{"A"}, Tuples: []rel.Tuple{row, row}}}}),
		"degree":        encode(dbSnapshot{Name: "X", Relations: []relSnapshot{{Name: "R", Attrs: ab, Tuples: []rel.Tuple{row[:1]}}}}),
	} {
		_, err := ReadSnapshot(bytes.NewReader(frameSnapshot(payload)))
		var ce *segment.CorruptError
		if !errors.As(err, &ce) || ce.Offset != snapshotHeaderSize {
			t.Errorf("%s: want CorruptError at the payload, got %v", name, err)
		} else if name == "repeated attr" && !strings.Contains(ce.Reason, `"A"`) {
			t.Errorf("%s: reason %q does not name the attribute", name, ce.Reason)
		}
	}
}

// FuzzReadSnapshot: any payload, framed with a valid header and checksum so
// that decoding and Create/Insert are reached, reads without a panic; it
// yields a database that round-trips or a *segment.CorruptError.
func FuzzReadSnapshot(f *testing.F) {
	data, err := snapshotDB().EncodeSnapshot()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data[snapshotHeaderSize:])
	f.Add([]byte{})
	f.Add([]byte("not gob"))
	f.Fuzz(func(t *testing.T, payload []byte) {
		db, err := ReadSnapshot(bytes.NewReader(frameSnapshot(payload)))
		if err != nil {
			var ce *segment.CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		again, err := db.EncodeSnapshot()
		if err != nil {
			t.Fatalf("re-encoding a read snapshot: %v", err)
		}
		if _, err := ReadSnapshot(bytes.NewReader(again)); err != nil {
			t.Fatalf("re-reading a read snapshot: %v", err)
		}
	})
}
