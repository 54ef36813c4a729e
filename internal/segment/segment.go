// Package segment implements the checksummed record framing shared by every
// on-disk artifact of the persistence layer: the write-ahead segment log of
// internal/store and — via the atomic-write helpers — the catalog snapshot
// files. It is a leaf package (stdlib only), so every layer can depend on it
// without import cycles.
//
// A segment is a flat append-only sequence of records:
//
//	+----------+----------+---------------------+
//	| len u32  | crc u32  | payload (len bytes) |
//	+----------+----------+---------------------+
//
// both integers little-endian, crc the CRC32-C (Castagnoli) checksum of the
// payload. The framing makes the torn-tail contract checkable: a crash can
// leave at most one partial record at the end of a segment, and a scan
// detects it — a header shorter than 8 bytes, a payload shorter than its
// length prefix, or a checksum mismatch — and reports the offset of the last
// clean record boundary so the caller can truncate and carry on. Bit rot
// anywhere in a record fails its checksum the same way.
//
// Durability is the caller's policy, not the package's: Writer buffers
// through bufio and exposes Sync (flush + fsync) so a store can choose
// per-record fsync or interval batching. The File and reader indirections
// exist for internal/faultinject's disk fault layer — short writes, fsync
// errors and read-time bit flips are injected by wrapping them.
package segment

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// headerSize is the fixed per-record framing overhead: u32 length + u32 CRC.
const headerSize = 8

// MaxRecord bounds a single record's payload. A length prefix beyond it is
// treated as corruption (truncating the segment there), not as a request to
// allocate gigabytes: no writer produces records this large, so a huge
// length can only be a torn or rotted header.
const MaxRecord = 1 << 30

// readChunk is the most a payload read allocates ahead of the bytes that
// arrive. A payload up to this size is read into one buffer of its full
// length; a longer one into a buffer that doubles as its bytes come in, so a
// rotted length prefix claiming up to MaxRecord costs about what the input
// holds, not the size it claims.
const readChunk = 1 << 20

// castagnoli is the CRC32-C table; hardware-accelerated on amd64/arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC32-C checksum of p.
func Checksum(p []byte) uint32 { return crc32.Checksum(p, castagnoli) }

// File is the writable handle a Writer appends to: an *os.File, or a fault
// wrapper around one (faultinject.FlakyFile injects short writes and fsync
// errors through exactly this seam).
type File interface {
	io.Writer
	io.Closer
	Sync() error
}

// CorruptError reports a scan stopping before end-of-file: a torn tail
// (crash mid-append) or a checksum mismatch (bit rot). Offset is the first
// byte that could not be trusted — the last clean record boundary, where
// recovery truncates.
type CorruptError struct {
	// Path names the segment when known (Scan fills it in via its path
	// argument; empty for anonymous readers).
	Path string
	// Offset is the byte offset of the first unreadable record.
	Offset int64
	// Reason says what failed: "torn header", "torn payload", "checksum
	// mismatch", "record too large".
	Reason string
}

func (e *CorruptError) Error() string {
	where := e.Path
	if where == "" {
		where = "segment"
	}
	return fmt.Sprintf("segment: %s corrupt at offset %d: %s", where, e.Offset, e.Reason)
}

// Writer appends checksummed records to a File. It is not safe for
// concurrent use; the owning store serializes appends under its own lock.
type Writer struct {
	f   File
	buf *bufio.Writer
	off int64 // bytes appended (clean record boundaries only)
	err error // sticky: a failed append poisons the writer
}

// NewWriter wraps f, whose current size must be off (0 for a fresh segment,
// the scanned clean tail when appending to a recovered one).
func NewWriter(f File, off int64) *Writer {
	return &Writer{f: f, buf: bufio.NewWriterSize(f, 1<<16), off: off}
}

// Offset returns the clean append position: the size the segment will have
// once buffered records are flushed.
func (w *Writer) Offset() int64 { return w.off }

// Err returns the sticky error, if any append or sync has failed.
func (w *Writer) Err() error { return w.err }

// Append buffers one record and returns its starting offset. A write error
// latches: the segment may hold a torn record beyond the last synced
// boundary, so the writer refuses further appends and the owner must
// recover by re-scanning.
func (w *Writer) Append(payload []byte) (int64, error) {
	if w.err != nil {
		return 0, w.err
	}
	if len(payload) > MaxRecord {
		return 0, fmt.Errorf("segment: record of %d bytes exceeds MaxRecord", len(payload))
	}
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], Checksum(payload))
	start := w.off
	if _, err := w.buf.Write(hdr[:]); err != nil {
		w.err = fmt.Errorf("segment: appending record at %d: %w", start, err)
		return 0, w.err
	}
	if _, err := w.buf.Write(payload); err != nil {
		w.err = fmt.Errorf("segment: appending record at %d: %w", start, err)
		return 0, w.err
	}
	w.off += int64(headerSize + len(payload))
	return start, nil
}

// Sync flushes buffered records and fsyncs the file — the durability point.
// An error latches like a failed append.
func (w *Writer) Sync() error {
	if w.err != nil {
		return w.err
	}
	if err := w.buf.Flush(); err != nil {
		w.err = fmt.Errorf("segment: flushing: %w", err)
		return w.err
	}
	if err := w.f.Sync(); err != nil {
		w.err = fmt.Errorf("segment: fsync: %w", err)
		return w.err
	}
	return nil
}

// Flush flushes buffered records to the OS without fsync — enough for a
// reader in the same process, not for crash durability.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	if err := w.buf.Flush(); err != nil {
		w.err = fmt.Errorf("segment: flushing: %w", err)
	}
	return w.err
}

// Close flushes and closes the file without fsync; call Sync first when the
// records must be durable.
func (w *Writer) Close() error {
	flushErr := w.Flush()
	closeErr := w.f.Close()
	if flushErr != nil {
		return flushErr
	}
	return closeErr
}

// Scan reads records from r, calling fn with each record's offset and
// payload (valid only during the call). It returns the clean tail — the
// offset just past the last whole, checksum-valid record — and, when the
// segment ends in a torn or corrupt record instead of a clean EOF, a
// *CorruptError describing it (scanning never continues past corruption:
// nothing after an untrusted length prefix has a trustworthy boundary). A
// non-nil error from fn aborts the scan and is returned verbatim.
func Scan(path string, r io.Reader, fn func(off int64, payload []byte) error) (int64, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var off int64
	var buf []byte
	for {
		var hdr [headerSize]byte
		n, err := io.ReadFull(br, hdr[:])
		if err == io.EOF {
			return off, nil // clean end
		}
		if err == io.ErrUnexpectedEOF {
			return off, &CorruptError{Path: path, Offset: off, Reason: fmt.Sprintf("torn header (%d of %d bytes)", n, headerSize)}
		}
		if err != nil {
			return off, fmt.Errorf("segment: reading %s at %d: %w", path, off, err)
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		want := binary.LittleEndian.Uint32(hdr[4:8])
		if length > MaxRecord {
			return off, &CorruptError{Path: path, Offset: off, Reason: fmt.Sprintf("record too large (%d bytes)", length)}
		}
		payload, err := ReadPayload(br, buf, int(length))
		if err != nil {
			if err == io.ErrUnexpectedEOF {
				return off, &CorruptError{Path: path, Offset: off, Reason: fmt.Sprintf("torn payload (%d of %d bytes)", len(payload), length)}
			}
			return off, fmt.Errorf("segment: reading %s at %d: %w", path, off, err)
		}
		buf = payload
		if got := Checksum(payload); got != want {
			return off, &CorruptError{Path: path, Offset: off, Reason: fmt.Sprintf("checksum mismatch (%#x != %#x)", got, want)}
		}
		if err := fn(off, payload); err != nil {
			return off, err
		}
		off += int64(headerSize + len(payload))
	}
}

// ReadPayload reads an n-byte payload from r, into buf's backing array when
// it has room and otherwise into a new buffer sized as readChunk describes.
// It returns the bytes read: all n, or fewer with io.ErrUnexpectedEOF when
// r ends first, or with r's error.
func ReadPayload(r io.Reader, buf []byte, n int) ([]byte, error) {
	if n > cap(buf) {
		buf = make([]byte, 0, min(n, readChunk))
	}
	buf = buf[:0]
	for len(buf) < n {
		if len(buf) == cap(buf) {
			buf = append(make([]byte, 0, min(2*cap(buf), n)), buf...)
		}
		m, err := io.ReadFull(r, buf[len(buf):min(cap(buf), n)])
		buf = buf[:len(buf)+m]
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// SyncDir fsyncs a directory, making renames and creates within it durable.
// The POSIX contract behind atomic snapshot rotation: rename(2) is atomic,
// but only the directory fsync persists which name the atomicity resolved
// to.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	syncErr := d.Sync()
	closeErr := d.Close()
	if syncErr != nil {
		return fmt.Errorf("segment: fsync dir %s: %w", dir, syncErr)
	}
	return closeErr
}

// WriteFileSync writes data to path atomically and durably: temp file in the
// same directory, write, fsync, rename over path, fsync the directory. After
// it returns, a crash observes either the old file or the complete new one —
// never a zero-length or torn file behind the rename.
func WriteFileSync(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+"-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op once renamed
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return SyncDir(dir)
}
