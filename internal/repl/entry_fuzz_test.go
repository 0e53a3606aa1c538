package repl

import (
	"bytes"
	"testing"
)

// FuzzDecodeEntry holds the term envelope to its contract. decodeEntry
// never panics, refuses every kind other than noop and app, and returns
// exactly what encodeEntry wrapped; a raw record it accepts re-encodes
// to the same bytes. The committed corpus holds a noop, an app entry, a
// valid envelope as the payload and a refused kind.
func FuzzDecodeEntry(f *testing.F) {
	f.Fuzz(func(t *testing.T, term uint64, kind byte, payload []byte) {
		gotTerm, gotKind, gotPayload, err := decodeEntry(encodeEntry(term, kind, payload))
		switch {
		case kind != kindNoop && kind != kindApp:
			if err == nil {
				t.Fatalf("kind %d decoded without error", kind)
			}
		case err != nil || gotTerm != term || gotKind != kind || !bytes.Equal(gotPayload, payload):
			t.Fatalf("decodeEntry(encodeEntry(%d, %d, %q)) = %d, %d, %q, %v",
				term, kind, payload, gotTerm, gotKind, gotPayload, err)
		}
		// The payload bytes as a raw record: refused, or a valid
		// envelope that re-encodes to itself.
		rawTerm, rawKind, rawPayload, err := decodeEntry(payload)
		if err != nil {
			return
		}
		if rawKind != kindNoop && rawKind != kindApp {
			t.Fatalf("raw %q decoded to kind %d", payload, rawKind)
		}
		if enc := encodeEntry(rawTerm, rawKind, rawPayload); !bytes.Equal(enc, payload) {
			t.Fatalf("raw %q re-encodes to %q", payload, enc)
		}
	})
}
