// Package wire provides the deterministic binary encoding of query
// answers (result + verification object) for both the IFMH-tree and the
// signature mesh. The paper's communication-overhead experiments (Fig 8)
// measure exactly these bytes, so the format is explicit and compact
// rather than reflective: every field is written big-endian with
// length-prefixed variable parts, through internal/codec's Writer and
// Reader, which hold the bounds rules for the untrusted bytes a client
// decodes.
//
// Transport-level outcomes ride HTTP status codes, never the frames:
// 400 for a frame that does not decode, 413 past the size cap, 422 for
// a frame that decodes but cannot be served, 429 for a request shed by
// admission control (the ErrOverload sentinel; see docs/WIRE.md).
// Per-query refusals travel inside a 200 frame via the status byte.
package wire
