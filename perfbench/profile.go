package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// layerProfile is host CPU time per layer from a CPU profile. Each sample
// goes to the innermost frame that belongs to a layer, so runtime work a
// layer causes (allocation, GC assists) counts toward that layer.
type layerProfile struct {
	ns    map[string]int64
	total int64
}

// layerOf maps a profile function name to its layer: a package under
// nvmetro/internal, folded as the benchmark's layers are, "bench" for the
// benchmark's own code (package main, named by its import path in test
// binaries), or "" for frames of no layer.
func layerOf(fn string) string {
	if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "nvmetro/perfbench.") {
		return "bench"
	}
	const pfx = "nvmetro/internal/"
	if !strings.HasPrefix(fn, pfx) {
		return ""
	}
	pkg := fn[len(pfx):]
	if i := strings.IndexAny(pkg, "/."); i >= 0 {
		pkg = pkg[:i]
	}
	switch pkg {
	case "sim", "core", "shard", "ebpf", "qos", "device", "vm", "uif":
		return pkg
	case "storfn", "xts", "sgx":
		return "xts"
	case "lsm", "extfs", "ycsb":
		return "lsm"
	case "fio", "metrics":
		return "fio"
	}
	return "other"
}

// layers lists every layer a profile can report, "runtime" being samples
// with no layer frame at all.
var layers = []string{"sim", "core", "shard", "ebpf", "qos", "device", "vm", "uif", "xts", "lsm", "fio", "other", "bench", "runtime"}

// readProfile decodes a gzipped pprof CPU profile and attributes its CPU
// time to layers.
func readProfile(path string) (*layerProfile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", path, err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", path, err)
	}
	p, err := decodeProfile(data)
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", path, err)
	}
	return p.attribute()
}

// The subset of profile.proto the attribution needs.
type rawProfile struct {
	sampleTypes [][2]int64 // (type, unit) string indexes
	samples     []rawSample
	locLines    map[uint64][]uint64 // location id -> function ids, innermost first
	funcName    map[uint64]int64    // function id -> name string index
	strs        []string
}

type rawSample struct {
	locs   []uint64
	values []int64
}

func (p *rawProfile) attribute() (*layerProfile, error) {
	col := -1
	for i, st := range p.sampleTypes {
		if p.str(st[0]) == "cpu" && p.str(st[1]) == "nanoseconds" {
			col = i
		}
	}
	if col < 0 {
		return nil, errors.New("profile has no cpu/nanoseconds samples")
	}
	lp := &layerProfile{ns: make(map[string]int64)}
	for _, s := range p.samples {
		if col >= len(s.values) {
			continue
		}
		v := s.values[col]
		layer := "runtime"
	frames:
		for _, loc := range s.locs {
			for _, fid := range p.locLines[loc] {
				if l := layerOf(p.str(p.funcName[fid])); l != "" {
					layer = l
					break frames
				}
			}
		}
		lp.ns[layer] += v
		lp.total += v
	}
	return lp, nil
}

func (p *rawProfile) str(i int64) string {
	if i < 0 || i >= int64(len(p.strs)) {
		return ""
	}
	return p.strs[i]
}

// pbuf is a protobuf wire-format reader.
type pbuf struct {
	b   []byte
	err error
}

func (r *pbuf) varint() uint64 {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			r.err = io.ErrUnexpectedEOF
			return 0
		}
		c := r.b[0]
		r.b = r.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
	r.err = errors.New("varint overflow")
	return 0
}

// field reads the next field's number, wire type and, for length-delimited
// fields, its bytes; varint fields return their value.
func (r *pbuf) field() (num int, wire int, val uint64, body []byte) {
	key := r.varint()
	num, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		val = r.varint()
	case 1:
		r.skip(8)
	case 2:
		n := r.varint()
		if n > uint64(len(r.b)) {
			r.err = io.ErrUnexpectedEOF
			return
		}
		body, r.b = r.b[:n], r.b[n:]
	case 5:
		r.skip(4)
	default:
		r.err = fmt.Errorf("unsupported wire type %d", wire)
	}
	return
}

func (r *pbuf) skip(n int) {
	if n > len(r.b) {
		r.err = io.ErrUnexpectedEOF
		return
	}
	r.b = r.b[n:]
}

// uints appends a repeated integer field, packed or not.
func uints(dst []uint64, wire int, val uint64, body []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, val), nil
	}
	r := &pbuf{b: body}
	for len(r.b) > 0 && r.err == nil {
		dst = append(dst, r.varint())
	}
	return dst, r.err
}

func decodeProfile(data []byte) (*rawProfile, error) {
	p := &rawProfile{locLines: make(map[uint64][]uint64), funcName: make(map[uint64]int64)}
	r := &pbuf{b: data}
	for len(r.b) > 0 && r.err == nil {
		num, wire, _, body := r.field()
		if r.err != nil || wire != 2 {
			continue
		}
		var err error
		switch num {
		case 1: // sample_type
			var vt [2]int64
			m := &pbuf{b: body}
			for len(m.b) > 0 && m.err == nil {
				f, _, v, _ := m.field()
				if f == 1 || f == 2 {
					vt[f-1] = int64(v)
				}
			}
			p.sampleTypes = append(p.sampleTypes, vt)
			err = m.err
		case 2: // sample
			var s rawSample
			var vals []uint64
			m := &pbuf{b: body}
			for len(m.b) > 0 && m.err == nil && err == nil {
				f, w, v, b := m.field()
				switch f {
				case 1:
					s.locs, err = uints(s.locs, w, v, b)
				case 2:
					vals, err = uints(vals, w, v, b)
				}
			}
			for _, v := range vals {
				s.values = append(s.values, int64(v))
			}
			p.samples = append(p.samples, s)
			if err == nil {
				err = m.err
			}
		case 4: // location
			var id uint64
			var fns []uint64
			m := &pbuf{b: body}
			for len(m.b) > 0 && m.err == nil {
				f, _, v, b := m.field()
				switch f {
				case 1:
					id = v
				case 4: // line
					l := &pbuf{b: b}
					for len(l.b) > 0 && l.err == nil {
						if lf, _, lv, _ := l.field(); lf == 1 {
							fns = append(fns, lv)
						}
					}
					if l.err != nil {
						m.err = l.err
					}
				}
			}
			p.locLines[id] = fns
			err = m.err
		case 5: // function
			var id uint64
			var name int64
			m := &pbuf{b: body}
			for len(m.b) > 0 && m.err == nil {
				f, _, v, _ := m.field()
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
			}
			p.funcName[id] = name
			err = m.err
		case 6: // string_table
			p.strs = append(p.strs, string(body))
		}
		if err != nil {
			return nil, err
		}
	}
	return p, r.err
}
