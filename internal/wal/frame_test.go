package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// FuzzNextFrame walks arbitrary segment bytes frame by frame from any
// starting offset: nextFrame must never panic, every frame it accepts
// must lie inside the data with a payload matching its header, and the
// walk must make progress.
func FuzzNextFrame(f *testing.F) {
	frame := func(p []byte) []byte {
		var hdr [frameHeader]byte
		binary.LittleEndian.PutUint32(hdr[:], uint32(len(p)))
		binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(p, castagnoli))
		return append(hdr[:], p...)
	}
	two := append(frame([]byte("record-0001")), frame([]byte("r2"))...)
	f.Add(two, uint16(0))
	f.Add(two[:len(two)-1], uint16(0)) // torn tail
	f.Add(two, uint16(len(two)))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}, uint16(0)) // length beyond MaxRecordBytes
	f.Add(frame(nil), uint16(0))                                 // zero length
	f.Fuzz(func(t *testing.T, data []byte, start uint16) {
		off := int64(start) % int64(len(data)+1)
		for {
			n, p, next := nextFrame(data, off)
			if next < 0 {
				return
			}
			if next <= off || next > int64(len(data)) {
				t.Fatalf("frame at %d of %d bytes: next offset %d", off, len(data), next)
			}
			if n != len(p) || !bytes.Equal(p, data[off+frameHeader:next]) {
				t.Fatalf("frame at %d: length %d, payload %x, want data[%d:%d]", off, n, p, off+frameHeader, next)
			}
			off = next
		}
	})
}
