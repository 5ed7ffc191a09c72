package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"testing"
)

// pb builds protobuf messages for synthetic profiles.
type pb []byte

func (b pb) varint(num int, v uint64) pb {
	b = binary.AppendUvarint(b, uint64(num)<<3)
	return binary.AppendUvarint(b, v)
}

func (b pb) bytes(num int, payload []byte) pb {
	b = binary.AppendUvarint(b, uint64(num)<<3|2)
	b = binary.AppendUvarint(b, uint64(len(payload)))
	return append(b, payload...)
}

func (b pb) packed(num int, vs ...uint64) pb {
	var p []byte
	for _, v := range vs {
		p = binary.AppendUvarint(p, v)
	}
	return b.bytes(num, p)
}

// syntheticProfile encodes a CPU profile shaped like the ones
// runtime/pprof writes: samples/count and cpu/nanoseconds values, one
// location whose leaf is inlined into a caller from another layer, and
// both packed and one-per-field repeated fields.
func syntheticProfile(t *testing.T) []byte {
	t.Helper()
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"sara/internal/memctrl.(*Controller).Tick",
		"sara/internal/sim.(*Kernel).Step",
		"runtime.mallocgc",
		"main.main",
		"slices.SortFunc[go.shape.[]sara/internal/sim.Cycle]",
		"sara/internal/lint.Run",
	}
	var p pb
	p = p.bytes(profSampleType, pb(nil).varint(valueTypeType, 1).varint(valueTypeUnit, 2))
	p = p.bytes(profSampleType, pb(nil).varint(valueTypeType, 3).varint(valueTypeUnit, 4))
	// Functions 1..6 name strings 5..10.
	for id := uint64(1); id <= 6; id++ {
		p = p.bytes(profFunction, pb(nil).varint(functionID, id).varint(functionName, id+4))
	}
	line := func(fn uint64) []byte { return pb(nil).varint(lineFunction, fn).varint(2, 42) }
	// Location 1: memctrl Tick inlined into the kernel's Step.
	p = p.bytes(profLocation, pb(nil).varint(locationID, 1).bytes(locationLine, line(1)).bytes(locationLine, line(2)))
	p = p.bytes(profLocation, pb(nil).varint(locationID, 2).bytes(locationLine, line(2)))
	p = p.bytes(profLocation, pb(nil).varint(locationID, 3).bytes(locationLine, line(3)))
	p = p.bytes(profLocation, pb(nil).varint(locationID, 4).bytes(locationLine, line(4)))
	p = p.bytes(profLocation, pb(nil).varint(locationID, 5).bytes(locationLine, line(5)))
	p = p.bytes(profLocation, pb(nil).varint(locationID, 6).bytes(locationLine, line(6)))
	sample := func(ns uint64, locs ...uint64) {
		s := pb(nil).packed(sampleLocation, locs...).packed(sampleValue, ns/10_000_000, ns)
		p = p.bytes(profSample, s)
	}
	sample(30_000_000, 1, 2, 4)
	sample(20_000_000, 2, 4)
	sample(10_000_000, 3, 1, 4)
	sample(10_000_000, 5, 4)
	sample(10_000_000, 6, 4)
	// One location per field, as runtime/pprof writes short stacks.
	p = p.bytes(profSample, pb(nil).varint(sampleLocation, 2).varint(sampleValue, 1).varint(sampleValue, 10_000_000))
	for _, s := range strs {
		p = p.bytes(profStringTable, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(p); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestFoldProfile(t *testing.T) {
	got, err := foldProfile(syntheticProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{
		"memctrl": 30_000_000, // the inlined leaf, not the caller it was inlined into
		"sim":     30_000_000,
		"runtime": 10_000_000,
		// A generic standard-library function whose type argument names
		// a simulator package, and an internal package that is not a
		// layer, both fold into other.
		"other": 20_000_000,
	}
	if len(got) != len(want) {
		t.Errorf("folded into %v, want %v", got, want)
	}
	for l, ns := range want {
		if got[l] != ns {
			t.Errorf("%s self time = %d ns, want %d", l, got[l], ns)
		}
	}
}

func TestFoldProfileRejectsCorruptInput(t *testing.T) {
	good := syntheticProfile(t)
	if _, err := foldProfile(good[:len(good)/2]); err == nil {
		t.Error("truncated gzip stream folded without error")
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write([]byte{0x12, 0x40, 0x01}) // a sample claiming 64 bytes it does not have
	zw.Close()
	if _, err := foldProfile(buf.Bytes()); err == nil {
		t.Error("truncated message folded without error")
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"sara/internal/noc.(*Router).Tick":           "noc",
		"sara/internal/exp.RunCells.func1":           "exp",
		"sara/internal/stats.(*Series).Append":       "stats",
		"runtime.gcBgMarkWorker":                     "runtime",
		"internal/runtime/atomic.(*Uint32).Load":     "runtime",
		"runtime/pprof.(*profileBuilder).addCPUData": "runtime",
		"sara.Build":            "other",
		"encoding/json.Marshal": "other",
		"sara/internal/memctrl.scan[go.shape.int].func2.1": "memctrl",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
