package onnx

import (
	"encoding/binary"
	"runtime"
	"testing"
)

// hostile assembles a binary encoding field by field: strings are
// length-prefixed, ints are uvarints, and raw bytes go in as given.
func hostile(parts ...any) []byte {
	b := []byte(binaryMagic)
	b = append(b, binaryVersion)
	for _, p := range parts {
		switch v := p.(type) {
		case string:
			b = binary.AppendUvarint(b, uint64(len(v)))
			b = append(b, v...)
		case uint64:
			b = binary.AppendUvarint(b, v)
		case int:
			b = binary.AppendUvarint(b, uint64(v))
		case byte:
			b = append(b, v)
		}
	}
	return b
}

// decodeAllocBytes decodes data once and reports the bytes allocated.
func decodeAllocBytes(t *testing.T, data []byte) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	g, err := DecodeBinary(data)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatalf("hostile input %x decoded to %+v", data, g)
	}
	return after.TotalAlloc - before.TotalAlloc
}

// TestDecodeBinaryHostileCountsPanic is the 16-byte crasher: an input count
// of 2^63-1 used to reach make([]ValueInfo, n) and panic with "makeslice:
// len out of range".
func TestDecodeBinaryHostileCountsPanic(t *testing.T) {
	data := hostile("", "", uint64(1<<63-1))
	if len(data) != 16 {
		t.Fatalf("crasher is %d bytes, want 16", len(data))
	}
	decodeAllocBytes(t, data)
}

// TestDecodeBinaryHostileCountsAllocation is the 11-byte crasher: an input
// count of 2^26 used to allocate ~2.5 GB of ValueInfo before the first
// element failed to parse. Every count is now bounded by the bytes left, so
// each hostile encoding allocates O(its own size).
func TestDecodeBinaryHostileCountsAllocation(t *testing.T) {
	const huge = uint64(1 << 26)
	if data := hostile("", "", huge); len(data) != 11 {
		t.Fatalf("crasher is %d bytes, want 11", len(data))
	}
	cases := map[string][]byte{
		"inputs":      hostile("", "", huge),
		"rank":        hostile("", "", 1, "x", huge),
		"nodes":       hostile("", "", 1, "x", 1, 1, huge),
		"node inputs": hostile("", "", 1, "x", 1, 1, 1, "n", "Relu", huge),
		"attrs":       hostile("", "", 1, "x", 1, 1, 1, "n", "Relu", 1, "x", huge),
		"ints":        hostile("", "", 1, "x", 1, 1, 1, "n", "Relu", 1, "x", 1, "k", byte(AttrInts), huge),
		"outputs":     hostile("", "", 1, "x", 1, 1, 0, huge),
	}
	for name, data := range cases {
		if got := decodeAllocBytes(t, data); got > 64<<10 {
			t.Errorf("%s: a %d-byte input allocated %d bytes", name, len(data), got)
		}
	}
}
