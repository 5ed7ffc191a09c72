package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layers are the buckets CPU samples fold into: the simulator's
// internal/ packages, the Go runtime, and everything else (the standard
// library, the sara facade and this benchmark).
var layers = []string{
	"sim", "memctrl", "noc", "dram", "dma", "traffic", "meter", "adapt",
	"txn", "stats", "core", "config", "exp", "analysis", "runtime", "other",
}

// layerOf maps a symbol name from a profile to its layer.
func layerOf(fn string) string {
	// Type arguments of generic instantiations may contain dots and
	// slashes of their own.
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	pkg := fn
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(pkg, "sara/internal/"):
		name, _, _ := strings.Cut(strings.TrimPrefix(pkg, "sara/internal/"), "/")
		for _, l := range layers {
			if l == name {
				return l
			}
		}
	}
	return "other"
}

// foldProfile decodes a pprof CPU profile (gzip-compressed, as
// runtime/pprof writes it) and sums each sample's CPU nanoseconds into
// the layer of its leaf frame: the innermost function, inlined callees
// included. The result is the self time of every layer in nanoseconds.
func foldProfile(data []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	col := -1
	for i, st := range p.sampleTypes {
		if p.str(st[1]) == "nanoseconds" {
			col = i
		}
	}
	if col < 0 {
		return nil, errors.New("profile: no sample value in nanoseconds")
	}
	self := make(map[string]int64, len(layers))
	for _, s := range p.samples {
		if len(s.locs) == 0 || col >= len(s.values) {
			return nil, errors.New("profile: malformed sample")
		}
		fn, ok := p.leafFunc[s.locs[0]]
		if !ok {
			return nil, fmt.Errorf("profile: sample at unknown location %d", s.locs[0])
		}
		self[layerOf(p.str(p.funcName[fn]))] += s.values[col]
	}
	return self, nil
}

// profile holds the parts of a profile.proto message folding needs.
type profile struct {
	sampleTypes [][2]uint64 // string-table indexes of (type, unit)
	samples     []sample
	leafFunc    map[uint64]uint64 // location id -> function id of its first line
	funcName    map[uint64]uint64 // function id -> string-table index of its name
	strings     []string
}

type sample struct {
	locs   []uint64
	values []int64
}

func (p *profile) str(i uint64) string {
	if i < uint64(len(p.strings)) {
		return p.strings[i]
	}
	return ""
}

// Field numbers of profile.proto (github.com/google/pprof/proto).
const (
	profSampleType  = 1
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	valueTypeType = 1
	valueTypeUnit = 2

	sampleLocation = 1
	sampleValue    = 2

	locationID   = 1
	locationLine = 4
	lineFunction = 1

	functionID   = 1
	functionName = 2
)

func parseProfile(b []byte) (*profile, error) {
	p := &profile{leafFunc: map[uint64]uint64{}, funcName: map[uint64]uint64{}}
	err := eachField(b, func(num int, v uint64, msg []byte) error {
		switch num {
		case profSampleType:
			var st [2]uint64
			err := eachField(msg, func(num int, v uint64, _ []byte) error {
				if num == valueTypeType || num == valueTypeUnit {
					st[num-1] = v
				}
				return nil
			})
			p.sampleTypes = append(p.sampleTypes, st)
			return err
		case profSample:
			var s sample
			err := eachField(msg, func(num int, v uint64, packed []byte) error {
				switch num {
				case sampleLocation:
					return appendVarints(&s.locs, v, packed)
				case sampleValue:
					var vals []uint64
					if err := appendVarints(&vals, v, packed); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case profLocation:
			var id, fn uint64
			seenLine := false
			err := eachField(msg, func(num int, v uint64, line []byte) error {
				switch {
				case num == locationID:
					id = v
				case num == locationLine && !seenLine:
					// The first line is the innermost frame; later
					// lines are the callers it was inlined into.
					seenLine = true
					return eachField(line, func(num int, v uint64, _ []byte) error {
						if num == lineFunction {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			p.leafFunc[id] = fn
			return err
		case profFunction:
			var id, name uint64
			err := eachField(msg, func(num int, v uint64, _ []byte) error {
				switch num {
				case functionID:
					id = v
				case functionName:
					name = v
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case profStringTable:
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	return p, err
}

// eachField walks the fields of one protobuf message, calling fn with
// each field's number and either its varint value or its
// length-delimited payload. Fixed-width fields are skipped.
func eachField(b []byte, fn func(num int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("truncated field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("truncated varint")
			}
			b = b[n:]
		case 1, 5:
			width := 8
			if wire == 5 {
				width = 4
			}
			if len(b) < width {
				return errors.New("truncated fixed-width field")
			}
			b = b[width:]
			continue
		case 2:
			size, n := binary.Uvarint(b)
			if n <= 0 || size > uint64(len(b)-n) {
				return errors.New("truncated length-delimited field")
			}
			payload = b[n : n+int(size)]
			b = b[n+int(size):]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, which encoders write
// either one value per field (payload nil) or packed into one payload.
func appendVarints(dst *[]uint64, v uint64, packed []byte) error {
	if packed == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errors.New("truncated packed varint")
		}
		*dst = append(*dst, x)
		packed = packed[n:]
	}
	return nil
}
