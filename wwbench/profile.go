package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
)

// modules maps function-name prefixes to the repository's layer names,
// most specific first. A profile sample is charged to the innermost frame
// that matches, so the standard-library and runtime code a layer calls
// (sorting, maps, allocation) counts as that layer's; samples with no
// repository frame at all are the runtime's own (GC workers, scheduler).
var modules = []struct{ prefix, module string }{
	{"repro/internal/node.fingerprint", "auth"},
	{"repro/internal/node.(*authLayer)", "auth"},
	{"repro/internal/node.(*auditLayer)", "audit"},
	{"repro/internal/node.(*reliableLayer)", "reliable"},
	{"repro/internal/node.(*rttEstimator)", "reliable"},
	{"repro/internal/node.(*reconfigLayer)", "reconfig"},
	{"repro/internal/node.(*pexLayer)", "pex"},
	{"repro/internal/node.(*presentIndex)", "pex"},
	{"repro/internal/node.(*World).ident", "identity"},
	{"repro/internal/node.EncodeIdentity", "identity"},
	{"repro/internal/node.DecodeIdentity", "identity"},
	{"repro/internal/node.", "node"},
	{"repro/internal/pex.", "pex"},
	{"repro/internal/sim.", "sim"},
	{"repro/internal/otq.", "otq"},
	{"repro/internal/tq.", "tq"},
	{"repro/internal/core.", "core"},
	{"repro/internal/fault.", "fault"},
	{"repro/internal/churn.", "churn"},
	{"repro/internal/graph.", "graph"},
	{"repro/internal/topology.", "graph"},
	{"repro/internal/", "other"},
	{"main.", "bench"},
}

// profileModules lists every module a share is reported for, in output
// order; "runtime" collects the samples no repository frame claims.
var profileModules = []string{"sim", "node", "reliable", "auth", "audit", "identity",
	"reconfig", "pex", "otq", "tq", "core", "fault", "churn", "graph", "other", "bench", "runtime"}

// hotPaths are the two hot paths earlier profiles found (pex link
// reconciliation, the auth/audit payload fingerprint); a sample counts
// toward one when any frame of its stack is in it.
var hotPaths = []struct{ metric, function string }{
	{"profile.reconcile_frac", "repro/internal/node.(*pexLayer).reconcile"},
	{"profile.fingerprint_frac", "repro/internal/node.fingerprint"},
}

func moduleOf(fn string) string {
	for _, m := range modules {
		if strings.HasPrefix(fn, m.prefix) {
			return m.module
		}
	}
	return ""
}

// shares is one profile's attribution: each module's and hot path's
// share of the profile's total value.
type shares struct {
	total   int64
	modules map[string]float64
	hot     map[string]float64
}

// attribute charges every sample of a decoded profile. valueType picks
// the sample value ("cpu" for CPU profiles, "alloc_space" for allocation
// profiles).
func attribute(p *profile, valueType string) (shares, error) {
	vi := -1
	for i, t := range p.sampleTypes {
		if t == valueType {
			vi = i
		}
	}
	if vi < 0 {
		return shares{}, fmt.Errorf("profile has no %q samples (has %v)", valueType, p.sampleTypes)
	}
	byMod := map[string]int64{}
	byHot := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		if vi >= len(s.values) {
			continue
		}
		v := s.values[vi]
		total += v
		mod := ""
		hit := map[string]bool{}
		for _, loc := range s.locations {
			for _, fn := range p.locations[loc] {
				if mod == "" {
					mod = moduleOf(fn)
				}
				for _, h := range hotPaths {
					if fn == h.function {
						hit[h.metric] = true
					}
				}
			}
		}
		if mod == "" {
			mod = "runtime"
		}
		byMod[mod] += v
		for m := range hit {
			byHot[m] += v
		}
	}
	sh := shares{total: total, modules: map[string]float64{}, hot: map[string]float64{}}
	if total > 0 {
		for m, v := range byMod {
			sh.modules[m] = float64(v) / float64(total)
		}
		for m, v := range byHot {
			sh.hot[m] = float64(v) / float64(total)
		}
	}
	return sh, nil
}

// writeLayerTable writes the module table of both profiles, largest CPU
// share first.
func writeLayerTable(path string, cpu, alloc shares) error {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %8s %8s\n", "module", "cpu", "alloc")
	mods := append([]string(nil), profileModules...)
	sort.SliceStable(mods, func(i, j int) bool { return cpu.modules[mods[i]] > cpu.modules[mods[j]] })
	for _, m := range mods {
		fmt.Fprintf(&b, "%-10s %7.1f%% %7.1f%%\n", m, 100*cpu.modules[m], 100*alloc.modules[m])
	}
	for _, h := range hotPaths {
		fmt.Fprintf(&b, "%s (cumulative, %s): cpu %.1f%% alloc %.1f%%\n",
			h.function, h.metric, 100*cpu.hot[h.metric], 100*alloc.hot[h.metric])
	}
	fmt.Fprintf(&b, "cpu samples total %d ns; alloc total %d bytes (sampled)\n", cpu.total, alloc.total)
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// profiler owns the CPU profile file of one traced run.
type profiler struct {
	dir, base string
	cpu       *os.File
}

func startProfile(dir, base string) (*profiler, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(dir, base+".cpu.pprof"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &profiler{dir: dir, base: base, cpu: f}, nil
}

// stop ends the CPU profile, writes the allocation profile and the
// module table of both beside it, and returns the CPU attribution.
func (p *profiler) stop() (shares, error) {
	pprof.StopCPUProfile()
	if err := p.cpu.Close(); err != nil {
		return shares{}, err
	}
	allocPath := filepath.Join(p.dir, p.base+".alloc.pprof")
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		return shares{}, err
	}
	if err := os.WriteFile(allocPath, buf.Bytes(), 0o644); err != nil {
		return shares{}, err
	}
	cpu, err := attributeFile(p.cpu.Name(), "cpu")
	if err != nil {
		return shares{}, err
	}
	alloc, err := attributeFile(allocPath, "alloc_space")
	if err != nil {
		return shares{}, err
	}
	return cpu, writeLayerTable(filepath.Join(p.dir, p.base+".layers.txt"), cpu, alloc)
}

func attributeFile(path, valueType string) (shares, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return shares{}, err
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return shares{}, fmt.Errorf("%s: %w", path, err)
	}
	return attribute(p, valueType)
}

// profile is the part of a pprof profile the attribution reads.
type profile struct {
	sampleTypes []string
	samples     []sample
	// locations maps a location id to its function names, innermost
	// (inlined) first.
	locations map[uint64][]string
}

type sample struct {
	locations []uint64 // leaf first
	values    []int64
}

// decodeProfile parses a gzipped profile.proto message: just the sample
// types, samples, locations, functions and string table.
func decodeProfile(raw []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	var (
		strs      []string
		typeIdx   []int64
		locFuncs  = map[uint64][]uint64{}
		funcNames = map[uint64]int64{}
		p         = &profile{locations: map[uint64][]string{}}
	)
	err = walkProto(data, func(field int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			return walkProto(b, func(f int, v uint64, _ []byte) error {
				if f == 1 {
					typeIdx = append(typeIdx, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s sample
			err := walkProto(b, func(f int, v uint64, pb []byte) error {
				switch f {
				case 1:
					return varints(v, pb, func(x uint64) { s.locations = append(s.locations, x) })
				case 2:
					return varints(v, pb, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walkProto(b, func(f int, v uint64, lb []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return walkProto(lb, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := walkProto(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	for _, i := range typeIdx {
		p.sampleTypes = append(p.sampleTypes, str(i))
	}
	for id, fns := range locFuncs {
		names := make([]string, len(fns))
		for i, f := range fns {
			names[i] = str(funcNames[f])
		}
		p.locations[id] = names
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// walkProto calls fn for each field of one protobuf message: v holds a
// varint's value, b a length-delimited field's bytes (b is nil for
// varints). Fixed-width fields are skipped.
func walkProto(data []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		data = data[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(data)
			if n <= 0 {
				return errTruncated
			}
			data = data[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errTruncated
			}
			b := data[n : n+int(l)]
			data = data[n+int(l):]
			if err := fn(field, 0, b); err != nil {
				return err
			}
		case 1:
			if len(data) < 8 {
				return errTruncated
			}
			data = data[8:]
		case 5:
			if len(data) < 4 {
				return errTruncated
			}
			data = data[4:]
		default:
			return fmt.Errorf("protobuf wire type %d unsupported", wire)
		}
	}
	return nil
}

// varints delivers a repeated varint field written either unpacked (one
// value, b nil) or packed (b holds the varints).
func varints(v uint64, b []byte, add func(uint64)) error {
	if b == nil {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		add(x)
		b = b[n:]
	}
	return nil
}
