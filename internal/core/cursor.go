package core

import (
	"io"

	"repro/internal/rel"
	"repro/internal/sourceset"
)

// Cursor is the tagged counterpart of rel.Cursor: a pull-based producer of
// polygen tuple batches over a fixed attribute list. It is the unit the
// streaming execution engine composes — every streaming polygen operator
// (stream.go) consumes cursors and is one, so a plan becomes a tree of
// cursors through which batches flow without materializing intermediate
// relations.
//
// The contract mirrors rel.Cursor: Next returns the next non-empty batch or
// (nil, io.EOF); batches are immutable and stay valid across Next calls;
// cursors are single-consumer; Close is idempotent and must always be
// called, including after an error and on early abandonment (closing a
// composed cursor closes its inputs).
type Cursor interface {
	// Name is the relation name the batches belong to ("" for derived
	// results), used for attribute disambiguation in joins and products.
	Name() string
	// Attrs describes the columns of every batch.
	Attrs() []Attr
	// Registry resolves source IDs in the cells' tag sets.
	Registry() *sourceset.Registry
	// Next returns the next batch, or (nil, io.EOF) when exhausted.
	Next() ([]Tuple, error)
	// Close releases the cursor's resources.
	Close() error
}

// header carries the static part of a Cursor; the operator cursors embed it.
type header struct {
	name  string
	attrs []Attr
	reg   *sourceset.Registry
}

func (h *header) Name() string                  { return h.name }
func (h *header) Attrs() []Attr                 { return h.attrs }
func (h *header) Registry() *sourceset.Registry { return h.reg }

// relationCursor cuts a materialized polygen relation into batches.
type relationCursor struct {
	header
	tuples []Tuple
	at     int
	batch  int
}

// NewRelationCursor returns a cursor over p's tuples with the given batch
// size (values < 1 mean rel.DefaultBatchSize). The tuples are aliased, not
// copied.
func NewRelationCursor(p *Relation, batch int) Cursor {
	if batch < 1 {
		batch = rel.DefaultBatchSize
	}
	return &relationCursor{
		header: header{name: p.Name, attrs: p.Attrs, reg: p.Reg},
		tuples: p.Tuples,
		batch:  batch,
	}
}

// CursorOf returns a cursor over p's tuples in rel.DefaultBatchSize batches.
func CursorOf(p *Relation) Cursor { return NewRelationCursor(p, rel.DefaultBatchSize) }

func (c *relationCursor) Next() ([]Tuple, error) {
	if c.at >= len(c.tuples) {
		return nil, io.EOF
	}
	end := c.at + c.batch
	if end > len(c.tuples) {
		end = len(c.tuples)
	}
	b := c.tuples[c.at:end:end]
	c.at = end
	return b, nil
}

// NextCol implements ColCursor: the next batch-sized run, columnarized
// (tag sets interned into the batch dictionary). Next keeps its zero-copy
// row batches; only columnar consumers (the mediator server's binary
// frames) pay for the conversion.
func (c *relationCursor) NextCol() (*ColBatch, error) {
	if c.at >= len(c.tuples) {
		return nil, io.EOF
	}
	end := c.at + c.batch
	if end > len(c.tuples) {
		end = len(c.tuples)
	}
	b := NewColBatch(c.name, c.reg, c.attrs)
	for _, t := range c.tuples[c.at:end] {
		b.AppendTuple(t)
	}
	c.at = end
	return b, nil
}

func (c *relationCursor) Close() error {
	c.at = len(c.tuples)
	return nil
}

var _ ColCursor = (*relationCursor)(nil)

// Drain materializes a cursor into a polygen relation and closes it. Batch
// tuples are retained, not copied — the Cursor contract keeps them valid
// and immutable.
func Drain(c Cursor) (*Relation, error) {
	out := NewRelation(c.Name(), c.Registry(), c.Attrs()...)
	for {
		batch, err := c.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			c.Close()
			return nil, err
		}
		out.Tuples = append(out.Tuples, batch...)
	}
	return out, c.Close()
}

// drained materializes the cursor a Stream* operator constructor returns:
// each relation-at-a-time operator (Project, Union, Join, ...) is its
// streaming counterpart drained over CursorOf its operands.
func drained(c Cursor, err error) (*Relation, error) {
	if err != nil {
		return nil, err
	}
	return Drain(c)
}

// closeAll closes every cursor, keeping the first error.
func closeAll(cs []Cursor) error {
	var first error
	for _, c := range cs {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
