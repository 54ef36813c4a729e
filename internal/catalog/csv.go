package catalog

import (
	"encoding/csv"
	"fmt"
	"io"

	"repro/internal/rel"
)

// LoadCSV reads a relation from CSV. The first record is the header (the
// attribute names); remaining records are parsed with rel.Parse. The
// relation is created in d under name with the given primary key, and the
// rows are inserted as one batch: a malformed record or a duplicate key
// leaves the relation empty.
func (d *Database) LoadCSV(name string, r io.Reader, key ...string) error {
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	header, err := cr.Read()
	if err != nil {
		return fmt.Errorf("catalog: reading CSV header for %q: %w", name, err)
	}
	attrs := make([]rel.Attr, len(header))
	for i, h := range header {
		attrs[i] = rel.Attr{Name: h}
	}
	schema, err := rel.MakeSchema(attrs...)
	if err != nil {
		return fmt.Errorf("catalog: CSV header for %q: %w", name, err)
	}
	if err := d.Create(name, schema, key...); err != nil {
		return err
	}
	var tuples []rel.Tuple
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return d.Insert(name, tuples...)
		}
		if err != nil {
			return fmt.Errorf("catalog: reading CSV for %q: %w", name, err)
		}
		tup := make(rel.Tuple, len(rec))
		for i, f := range rec {
			tup[i] = rel.Parse(f)
		}
		tuples = append(tuples, tup)
	}
}

// WriteCSV writes the named relation as CSV with a header row.
func (d *Database) WriteCSV(name string, w io.Writer) error {
	r, err := d.Snapshot(name)
	if err != nil {
		return err
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(r.Schema.Names()); err != nil {
		return err
	}
	for _, t := range r.Tuples {
		rec := make([]string, len(t))
		for i, v := range t {
			rec[i] = v.String()
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
