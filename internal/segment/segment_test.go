package segment

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// writeRecords appends the payloads through a Writer into a byte buffer and
// returns the raw segment bytes plus each record's end offset.
func writeRecords(t testing.TB, payloads [][]byte) ([]byte, []int64) {
	t.Helper()
	var raw bytes.Buffer
	w := NewWriter(nopFile{&raw}, 0)
	ends := make([]int64, 0, len(payloads))
	for _, p := range payloads {
		if _, err := w.Append(p); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, w.Offset())
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	return raw.Bytes(), ends
}

type nopFile struct{ *bytes.Buffer }

func (nopFile) Sync() error  { return nil }
func (nopFile) Close() error { return nil }

func scanAll(raw []byte) ([][]byte, int64, error) {
	var got [][]byte
	tail, err := Scan("t", bytes.NewReader(raw), func(off int64, p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	})
	return got, tail, err
}

func TestRoundTrip(t *testing.T) {
	payloads := [][]byte{[]byte("alpha"), {}, []byte("gamma-gamma"), {0, 1, 2, 3}}
	raw, ends := writeRecords(t, payloads)
	got, tail, err := scanAll(raw)
	if err != nil {
		t.Fatalf("clean segment scanned with error: %v", err)
	}
	if tail != int64(len(raw)) || tail != ends[len(ends)-1] {
		t.Fatalf("tail %d, want %d", tail, len(raw))
	}
	if len(got) != len(payloads) {
		t.Fatalf("scanned %d records, want %d", len(got), len(payloads))
	}
	for i := range got {
		if !bytes.Equal(got[i], payloads[i]) {
			t.Fatalf("record %d: got %q want %q", i, got[i], payloads[i])
		}
	}
}

// TestTornTailEveryTruncation crashes the segment at every byte: a segment
// truncated at c must scan exactly the records wholly contained in [0, c),
// with the clean tail at the last whole record boundary and a CorruptError
// for every c that is not a boundary.
func TestTornTailEveryTruncation(t *testing.T) {
	payloads := [][]byte{[]byte("one"), []byte("twotwo"), []byte("3"), []byte("fourfourfour")}
	raw, ends := writeRecords(t, payloads)
	boundary := map[int64]int{0: 0}
	for i, e := range ends {
		boundary[e] = i + 1
	}
	for c := 0; c <= len(raw); c++ {
		got, tail, err := scanAll(raw[:c])
		wantN := 0
		var wantTail int64
		for i, e := range ends {
			if e <= int64(c) {
				wantN = i + 1
				wantTail = e
			}
		}
		if len(got) != wantN || tail != wantTail {
			t.Fatalf("truncate at %d: scanned %d records to tail %d, want %d records to %d", c, len(got), tail, wantN, wantTail)
		}
		if _, clean := boundary[int64(c)]; clean {
			if err != nil {
				t.Fatalf("truncate at boundary %d: unexpected error %v", c, err)
			}
		} else {
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("truncate at %d: want CorruptError, got %v", c, err)
			}
			if ce.Offset != wantTail {
				t.Fatalf("truncate at %d: corrupt offset %d, want %d", c, ce.Offset, wantTail)
			}
		}
	}
}

// TestBitFlipEveryByte rots each byte in turn: the scan must stop at (or
// before) the record containing the flip, never deliver a wrong payload, and
// name the failing boundary.
func TestBitFlipEveryByte(t *testing.T) {
	payloads := [][]byte{[]byte("aaaa"), []byte("bbbbbbb"), []byte("cc")}
	raw, ends := writeRecords(t, payloads)
	starts := []int64{0, ends[0], ends[1]}
	for p := 0; p < len(raw); p++ {
		flipped := append([]byte(nil), raw...)
		flipped[p] ^= 0x40
		got, _, err := scanAll(flipped)
		// Which record contains byte p?
		rec := 0
		for rec < len(starts)-1 && int64(p) >= starts[rec+1] {
			rec++
		}
		if err == nil {
			// A flip in a length prefix can reframe the stream; the only
			// acceptable error-free outcome is that every delivered payload
			// is a true prefix record (possible only when the flip created
			// a colliding checksum, which CRC32-C precludes for single-bit
			// flips of these sizes).
			t.Fatalf("flip at %d: scan reported no error", p)
		}
		if len(got) > rec {
			for i, g := range got[:min(len(got), rec)] {
				if !bytes.Equal(g, payloads[i]) {
					t.Fatalf("flip at %d: record %d delivered corrupted payload", p, i)
				}
			}
			t.Fatalf("flip at %d (record %d): delivered %d records", p, rec, len(got))
		}
	}
}

func TestHugeLengthPrefixRejected(t *testing.T) {
	raw, _ := writeRecords(t, [][]byte{[]byte("x")})
	raw[0], raw[1], raw[2], raw[3] = 0xff, 0xff, 0xff, 0x7f
	_, _, err := scanAll(raw)
	var ce *CorruptError
	if !errors.As(err, &ce) || ce.Reason == "" {
		t.Fatalf("want CorruptError for huge length, got %v", err)
	}
}

// allocated returns the bytes the heap handed out while fn ran.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestRottedLengthAllocatesWhatArrives: a record header claiming MaxRecord
// bytes followed by ten fails as a torn payload, and the scan allocates
// about what the input holds, not the gigabyte the header claims.
func TestRottedLengthAllocatesWhatArrives(t *testing.T) {
	raw := make([]byte, headerSize+10)
	binary.LittleEndian.PutUint32(raw[0:4], MaxRecord)
	var err error
	n := allocated(func() { _, _, err = scanAll(raw) })
	want := CorruptError{Path: "t", Offset: 0, Reason: fmt.Sprintf("torn payload (10 of %d bytes)", MaxRecord)}
	var ce *CorruptError
	if !errors.As(err, &ce) || *ce != want {
		t.Fatalf("got %v, want %v", err, &want)
	}
	if n >= 8<<20 {
		t.Fatalf("scanning an 18-byte segment allocated %d bytes", n)
	}
}

// TestLargeRecordsRoundTrip: records longer than readChunk, read through
// the growing buffer, scan back intact beside small ones.
func TestLargeRecordsRoundTrip(t *testing.T) {
	big := bytes.Repeat([]byte("0123456789abcdef"), (3*readChunk+5)/16)
	payloads := [][]byte{[]byte("small"), big, {}, big[:readChunk+1], []byte("tail")}
	raw, _ := writeRecords(t, payloads)
	got, tail, err := scanAll(raw)
	if err != nil || tail != int64(len(raw)) || len(got) != len(payloads) {
		t.Fatalf("scan: %d records, tail %d of %d, err %v", len(got), tail, len(raw), err)
	}
	for i := range got {
		if !bytes.Equal(got[i], payloads[i]) {
			t.Fatalf("record %d: %d bytes back, want %d", i, len(got[i]), len(payloads[i]))
		}
	}
	// Cut inside the big record: torn, at its start.
	_, tail, err = scanAll(raw[:len(raw)-len(big)])
	var ce *CorruptError
	if !errors.As(err, &ce) || tail != int64(headerSize+len("small")) {
		t.Fatalf("cut big record: tail %d, err %v", tail, err)
	}
}

// FuzzScan: any byte string scans without a panic. The records handed to
// fn tile the input from offset 0 up to the returned tail; a scan that
// stops short of the end says why with a *CorruptError at the tail.
func FuzzScan(f *testing.F) {
	raw, _ := writeRecords(f, [][]byte{[]byte("alpha"), {}, []byte("gamma-gamma")})
	f.Add(raw)
	f.Add(raw[:len(raw)-3])
	f.Add([]byte{})
	rotted := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint32(rotted[0:4], MaxRecord)
	f.Add(rotted)
	f.Fuzz(func(t *testing.T, raw []byte) {
		var end int64
		tail, err := Scan("fuzz", bytes.NewReader(raw), func(off int64, p []byte) error {
			if off != end {
				t.Fatalf("record at %d, want %d", off, end)
			}
			end = off + headerSize + int64(len(p))
			return nil
		})
		if tail != end {
			t.Fatalf("tail %d, records end at %d", tail, end)
		}
		if err == nil {
			if tail != int64(len(raw)) {
				t.Fatalf("clean scan stopped at %d of %d", tail, len(raw))
			}
			return
		}
		var ce *CorruptError
		if !errors.As(err, &ce) || ce.Offset != tail {
			t.Fatalf("scan stopped at %d with %v, want a CorruptError there", tail, err)
		}
	})
}

func TestAppendAfterRecoveredTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "seg")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriter(f, 0)
	if _, err := w.Append([]byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	w.Close()
	// Tear the tail: append garbage simulating a torn record.
	raw, _ := os.ReadFile(path)
	os.WriteFile(path, append(raw, 0xde, 0xad), 0o644)

	rf, _ := os.Open(path)
	tail, scanErr := Scan(path, rf, func(int64, []byte) error { return nil })
	rf.Close()
	var ce *CorruptError
	if !errors.As(scanErr, &ce) {
		t.Fatalf("want CorruptError, got %v", scanErr)
	}
	// Truncate and append from the clean tail.
	if err := os.Truncate(path, tail); err != nil {
		t.Fatal(err)
	}
	af, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	w2 := NewWriter(af, tail)
	if _, err := w2.Append([]byte("second")); err != nil {
		t.Fatal(err)
	}
	if err := w2.Sync(); err != nil {
		t.Fatal(err)
	}
	w2.Close()

	rf2, _ := os.Open(path)
	var got [][]byte
	if _, err := Scan(path, rf2, func(_ int64, p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	}); err != nil {
		t.Fatalf("scan after repair: %v", err)
	}
	rf2.Close()
	if len(got) != 2 || string(got[0]) != "first" || string(got[1]) != "second" {
		t.Fatalf("after repair got %q", got)
	}
}

func TestWriteFileSyncAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap")
	if err := WriteFileSync(path, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileSync(path, []byte("v2-longer")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "v2-longer" {
		t.Fatalf("got %q, %v", got, err)
	}
	// No temp litter.
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		names := make([]string, 0, len(entries))
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("directory litter: %v", names)
	}
}

func TestWriterErrorLatches(t *testing.T) {
	w := NewWriter(failFile{}, 0)
	if _, err := w.Append(bytes.Repeat([]byte("x"), 1<<17)); err == nil {
		// The bufio buffer is 64k; a 128k payload forces a write-through
		// that must surface the failure.
		t.Fatal("want error from failing file")
	}
	if _, err := w.Append([]byte("y")); err == nil {
		t.Fatal("error must latch")
	}
	if w.Err() == nil {
		t.Fatal("Err must report the latched failure")
	}
}

type failFile struct{}

func (failFile) Write([]byte) (int, error) { return 0, fmt.Errorf("disk on fire") }
func (failFile) Sync() error               { return fmt.Errorf("disk on fire") }
func (failFile) Close() error              { return nil }
