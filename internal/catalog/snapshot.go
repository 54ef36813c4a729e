package catalog

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/rel"
	"repro/internal/segment"
)

// The gob snapshot format gives a local database durable storage: lqpd can
// serve a database from a snapshot file, and tools can persist a federation
// between runs. Values rely on rel.Value's gob encoding.
//
// Snapshots carry an integrity header so a torn or rotted file fails with a
// typed error naming the offset instead of a gob panic deep in decode:
//
//	+--------------+---------+------------------+------------------+---------+
//	| "PGSNAP" (6) | ver (1) | payload len u64  | payload crc u32  | gob ... |
//	+--------------+---------+------------------+------------------+---------+
//
// length and CRC32-C little-endian, covering the gob payload. Input that
// does not start with the magic is rejected as corrupt.

type dbSnapshot struct {
	Name      string
	Relations []relSnapshot
}

type relSnapshot struct {
	Name   string
	Attrs  []rel.Attr
	Key    []string
	Tuples []rel.Tuple
}

var snapshotMagic = [6]byte{'P', 'G', 'S', 'N', 'A', 'P'}

const (
	snapshotVersion    = 1
	snapshotHeaderSize = 6 + 1 + 8 + 4
)

// snapshot gathers the database — schemas, keys and tuples — under the read
// lock.
func (d *Database) snapshot() dbSnapshot {
	d.mu.RLock()
	defer d.mu.RUnlock()
	snap := dbSnapshot{Name: d.name}
	for _, name := range d.relationNamesLocked() {
		t := d.rels[name]
		snap.Relations = append(snap.Relations, relSnapshot{
			Name:   name,
			Attrs:  t.rel.Schema.Attrs(),
			Key:    append([]string(nil), t.key...),
			Tuples: append([]rel.Tuple(nil), t.rel.Tuples...),
		})
	}
	return snap
}

// EncodeSnapshot serializes the whole database to one headered snapshot
// byte slice — the unit SaveFile persists atomically and internal/store
// rotates into its data directory.
func (d *Database) EncodeSnapshot() ([]byte, error) {
	snap := d.snapshot()
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(snap); err != nil {
		return nil, fmt.Errorf("catalog: encoding snapshot of %q: %w", snap.Name, err)
	}
	return frameSnapshot(payload.Bytes()), nil
}

// frameSnapshot prefixes payload with the snapshot header.
func frameSnapshot(payload []byte) []byte {
	out := make([]byte, snapshotHeaderSize, snapshotHeaderSize+len(payload))
	copy(out[0:6], snapshotMagic[:])
	out[6] = snapshotVersion
	binary.LittleEndian.PutUint64(out[7:15], uint64(len(payload)))
	binary.LittleEndian.PutUint32(out[15:19], segment.Checksum(payload))
	return append(out, payload...)
}

// WriteSnapshot writes the headered snapshot to w.
func (d *Database) WriteSnapshot(w io.Writer) error {
	data, err := d.EncodeSnapshot()
	if err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		return fmt.Errorf("catalog: writing snapshot of %q: %w", d.name, err)
	}
	return nil
}

// relationNamesLocked returns relation names sorted; callers hold d.mu.
func (d *Database) relationNamesLocked() []string {
	names := make([]string, 0, len(d.rels))
	for n := range d.rels {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ReadSnapshot reconstructs a database from a snapshot. The snapshot is
// verified before decoding: a missing magic, a truncated or a bit-rotted
// file fails with a *segment.CorruptError naming the offset of the damage.
// A payload whose checksum holds but which does not decode to a valid
// database fails the same way, at the payload's offset.
func ReadSnapshot(r io.Reader) (*Database, error) {
	var hdr [snapshotHeaderSize]byte
	n, err := io.ReadFull(r, hdr[:])
	if m := min(n, len(snapshotMagic)); !bytes.Equal(hdr[:m], snapshotMagic[:m]) {
		return nil, &segment.CorruptError{Path: "snapshot", Offset: 0, Reason: "no snapshot magic"}
	}
	if err != nil {
		return nil, &segment.CorruptError{Path: "snapshot", Offset: int64(n), Reason: "torn header"}
	}
	if hdr[6] != snapshotVersion {
		return nil, &segment.CorruptError{Path: "snapshot", Offset: 6, Reason: fmt.Sprintf("snapshot version %d not supported (want %d)", hdr[6], snapshotVersion)}
	}
	length := binary.LittleEndian.Uint64(hdr[7:15])
	want := binary.LittleEndian.Uint32(hdr[15:19])
	if length > segment.MaxRecord {
		return nil, &segment.CorruptError{Path: "snapshot", Offset: 7, Reason: fmt.Sprintf("payload length %d implausible", length)}
	}
	payload, err := segment.ReadPayload(r, nil, int(length))
	if err != nil {
		return nil, &segment.CorruptError{
			Path:   "snapshot",
			Offset: int64(snapshotHeaderSize + len(payload)),
			Reason: fmt.Sprintf("torn payload (%d of %d bytes)", len(payload), length),
		}
	}
	if got := segment.Checksum(payload); got != want {
		return nil, &segment.CorruptError{
			Path:   "snapshot",
			Offset: snapshotHeaderSize,
			Reason: fmt.Sprintf("payload checksum mismatch (%#x != %#x)", got, want),
		}
	}
	bad := func(reason string) error {
		return &segment.CorruptError{Path: "snapshot", Offset: snapshotHeaderSize, Reason: reason}
	}
	var snap dbSnapshot
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&snap); err != nil {
		return nil, bad("decoding payload: " + err.Error())
	}
	db := NewDatabase(snap.Name)
	for _, rs := range snap.Relations {
		schema, err := rel.MakeSchema(rs.Attrs...)
		if err != nil {
			return nil, bad(fmt.Sprintf("relation %q: %v", rs.Name, err))
		}
		if err := db.Create(rs.Name, schema, rs.Key...); err != nil {
			return nil, bad(err.Error())
		}
		if err := db.Insert(rs.Name, rs.Tuples...); err != nil {
			return nil, bad(err.Error())
		}
	}
	return db, nil
}

// SaveFile writes a snapshot to path atomically and durably: temp file in
// the same directory, fsync, rename, directory fsync — a crash at any point
// leaves either the previous file or the complete new one, never a
// zero-length or torn snapshot behind the rename.
func (d *Database) SaveFile(path string) error {
	data, err := d.EncodeSnapshot()
	if err != nil {
		return err
	}
	return segment.WriteFileSync(path, data)
}

// OpenFile reads a snapshot from path.
func OpenFile(path string) (*Database, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	db, err := ReadSnapshot(f)
	if err != nil {
		var ce *segment.CorruptError
		if errors.As(err, &ce) {
			ce.Path = path
		}
		return nil, err
	}
	return db, nil
}
