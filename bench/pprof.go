package main

// A decoder for the one thing the harness needs from runtime/pprof's CPU
// profile — each sample's count and symbolised call stack — so that the
// per-layer CPU shares need neither a module dependency nor the go tool at
// run time. The format is the gzip-compressed profile.proto of
// github.com/google/pprof; field numbers below are from that schema.

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
)

// cpuSample is one profile sample: how many times the stack was seen, and
// the stack as function names, leaf first, inlined frames expanded.
type cpuSample struct {
	count int64
	stack []string
}

var errProto = errors.New("malformed profile")

// protoReader walks the fields of one protobuf message.
type protoReader struct{ b []byte }

func (r *protoReader) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			return 0, errProto
		}
		c := r.b[0]
		r.b = r.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errProto
}

// next returns the next field: its number, and either its varint value or
// its length-delimited payload. ok is false at the end of the message.
func (r *protoReader) next() (field int, v uint64, data []byte, ok bool, err error) {
	if len(r.b) == 0 {
		return 0, 0, nil, false, nil
	}
	key, err := r.varint()
	if err != nil {
		return 0, 0, nil, false, err
	}
	field = int(key >> 3)
	switch key & 7 {
	case 0:
		v, err = r.varint()
	case 1:
		if len(r.b) < 8 {
			return 0, 0, nil, false, errProto
		}
		r.b = r.b[8:]
	case 2:
		var n uint64
		if n, err = r.varint(); err == nil {
			if n > uint64(len(r.b)) {
				return 0, 0, nil, false, errProto
			}
			data, r.b = r.b[:n], r.b[n:]
		}
	case 5:
		if len(r.b) < 4 {
			return 0, 0, nil, false, errProto
		}
		r.b = r.b[4:]
	default:
		err = errProto
	}
	return field, v, data, err == nil, err
}

// repeatedVarint appends a repeated integer field that may arrive packed
// (data) or one value at a time (v).
func repeatedVarint(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	r := protoReader{data}
	for len(r.b) > 0 {
		x, err := r.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

// decodeProfile parses a gzip-compressed profile.proto.
func decodeProfile(gz []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}

	type rawSample struct {
		locs  []uint64
		count int64
	}
	var (
		samples  []rawSample
		locLines = map[uint64][]uint64{} // location id → function ids, innermost first
		funcName = map[uint64]uint64{}   // function id → string-table index
		strs     []string
	)
	top := protoReader{raw}
	for {
		field, _, data, ok, err := top.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		msg := protoReader{data}
		switch field {
		case 2: // Sample: location_id = 1, value = 2
			var s rawSample
			var values []uint64
			for {
				f, v, d, ok, err := msg.next()
				if err != nil {
					return nil, err
				}
				if !ok {
					break
				}
				switch f {
				case 1:
					if s.locs, err = repeatedVarint(s.locs, v, d); err != nil {
						return nil, err
					}
				case 2:
					if values, err = repeatedVarint(values, v, d); err != nil {
						return nil, err
					}
				}
			}
			if len(values) > 0 {
				s.count = int64(values[0]) // sample_type[0] is samples/count
			}
			samples = append(samples, s)
		case 4: // Location: id = 1, line = 4 (Line: function_id = 1)
			var id uint64
			var fns []uint64
			for {
				f, v, d, ok, err := msg.next()
				if err != nil {
					return nil, err
				}
				if !ok {
					break
				}
				switch f {
				case 1:
					id = v
				case 4:
					line := protoReader{d}
					for {
						lf, lv, _, ok, err := line.next()
						if err != nil {
							return nil, err
						}
						if !ok {
							break
						}
						if lf == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			locLines[id] = fns
		case 5: // Function: id = 1, name = 2
			var id, name uint64
			for {
				f, v, _, ok, err := msg.next()
				if err != nil {
					return nil, err
				}
				if !ok {
					break
				}
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
	}

	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		cs := cpuSample{count: s.count}
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				idx := funcName[fn]
				if idx >= uint64(len(strs)) {
					return nil, errProto
				}
				cs.stack = append(cs.stack, strs[idx])
			}
		}
		out = append(out, cs)
	}
	return out, nil
}
