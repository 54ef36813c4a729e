package wire

// The binary frame codec: the zero-copy columnar wire format of every
// streamed result's row frames. Control messages (requests,
// responses, the frame envelope itself) stay gob — the codec's payload rides
// inside the envelope as one opaque byte slice (frame.Bin), because a gob
// decoder buffers ahead and cannot share a connection with raw interleaved
// bytes.
//
// The byte layout itself lives beside the batch types it serializes —
// rel/codec.go for plain frames (0xC1), core/codec.go for source-tagged
// frames (0xC2) — because the write-ahead segment log (internal/store) and
// the spill files of the budgeted hash operators persist the very same
// frames. This file only binds the codec into the protocol: the per-stream
// append/decode helpers.

import (
	"repro/internal/core"
	"repro/internal/rel"
	"repro/internal/sourceset"
)

const (
	magicPlain  = rel.FrameMagicPlain   // untagged columnar frame (rel.ColBatch)
	magicTagged = core.FrameMagicTagged // source-tagged columnar frame (core.ColBatch)
)

// appendRelFrame appends one plain columnar frame to buf and returns it.
func appendRelFrame(buf []byte, b *rel.ColBatch) []byte { return rel.AppendFrame(buf, b) }

// appendCoreFrame appends one tagged columnar frame to buf and returns it.
func appendCoreFrame(buf []byte, b *core.ColBatch) []byte { return core.AppendFrame(buf, b) }

// decodeRelFrame decodes one plain columnar frame against the stream's
// schema.
func decodeRelFrame(payload []byte, schema *rel.Schema) (*rel.ColBatch, error) {
	return rel.DecodeFrame(payload, schema)
}

// decodeCoreFrame decodes one tagged columnar frame into the receiver's
// attribute space, re-interning the frame's source names into reg.
func decodeCoreFrame(payload []byte, name string, attrs []core.Attr, reg *sourceset.Registry) (*core.ColBatch, error) {
	return core.DecodeFrame(payload, name, attrs, reg)
}
