package pattern

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"neurotest/internal/snn"
)

// maxConfigWeights bounds the weights of one decoded configuration, the
// service's default per-configuration limit. Decoders allocate a
// configuration before reading its weights, so a header claiming an
// absurd architecture must be refused before it reaches the allocator.
const maxConfigWeights = 1 << 24

// validateArch checks a decoded architecture, refusing more than
// maxConfigWeights weights per configuration without overflowing on
// absurd widths.
func validateArch(arch snn.Arch) error {
	if err := arch.Validate(); err != nil {
		return err
	}
	weights := 0
	for b := 0; b < arch.Boundaries(); b++ {
		if arch[b] > (maxConfigWeights-weights)/arch[b+1] {
			return fmt.Errorf("pattern: architecture %v has more than %d weights per configuration", arch, maxConfigWeights)
		}
		weights += arch[b] * arch[b+1]
	}
	return nil
}

// jsonTestSet is the stable on-disk JSON shape of a TestSet.
type jsonTestSet struct {
	Name    string        `json:"name"`
	Arch    []int         `json:"arch"`
	Theta   float64       `json:"theta"`
	Leak    float64       `json:"leak"`
	WMax    float64       `json:"wmax"`
	Reset   string        `json:"reset,omitempty"` // "zero" (default) or "subtract"
	Configs [][][]float64 `json:"configs"`         // [config][boundary][flat weights]
	Items   []jsonItem    `json:"items"`
}

type jsonItem struct {
	Label       string `json:"label"`
	ConfigIndex int    `json:"config"`
	Pattern     []int  `json:"pattern"` // indices of asserted inputs
	Timesteps   int    `json:"timesteps"`
	Repeat      int    `json:"repeat"`
	Hold        bool   `json:"hold,omitempty"`
}

// WriteJSON encodes ts as JSON.
func WriteJSON(w io.Writer, ts *TestSet) error {
	out := jsonTestSet{
		Name:  ts.Name,
		Arch:  ts.Arch,
		Theta: ts.Params.Theta,
		Leak:  ts.Params.Leak,
		WMax:  ts.Params.WMax,
	}
	if ts.Params.Reset == snn.ResetSubtract {
		out.Reset = "subtract"
	}
	for _, cfg := range ts.Configs {
		out.Configs = append(out.Configs, cfg.W)
	}
	for _, it := range ts.Items {
		ji := jsonItem{Label: it.Label, ConfigIndex: it.ConfigIndex, Timesteps: it.Timesteps, Repeat: it.Repeat, Hold: it.Hold}
		for i, v := range it.Pattern {
			if v {
				ji.Pattern = append(ji.Pattern, i)
			}
		}
		out.Items = append(out.Items, ji)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// ReadJSON decodes a TestSet from JSON and validates it.
func ReadJSON(r io.Reader) (*TestSet, error) {
	var in jsonTestSet
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("pattern: decoding JSON test set: %w", err)
	}
	arch := snn.Arch(in.Arch)
	if err := validateArch(arch); err != nil {
		return nil, err
	}
	params := snn.Params{Theta: in.Theta, Leak: in.Leak, WMax: in.WMax}
	switch in.Reset {
	case "", "zero":
		params.Reset = snn.ResetZero
	case "subtract":
		params.Reset = snn.ResetSubtract
	default:
		return nil, fmt.Errorf("pattern: unknown reset mode %q", in.Reset)
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	ts := NewTestSet(in.Name, arch, params)
	for ci, cw := range in.Configs {
		if len(cw) != arch.Boundaries() {
			return nil, fmt.Errorf("pattern: config %d has %d boundaries, want %d", ci, len(cw), arch.Boundaries())
		}
		cfg := snn.New(arch, params)
		for b := range cw {
			if len(cw[b]) != arch[b]*arch[b+1] {
				return nil, fmt.Errorf("pattern: config %d boundary %d has %d weights, want %d", ci, b, len(cw[b]), arch[b]*arch[b+1])
			}
			copy(cfg.W[b], cw[b])
		}
		ts.Configs = append(ts.Configs, cfg)
	}
	for _, ji := range in.Items {
		p := snn.NewPattern(arch.Inputs())
		for _, idx := range ji.Pattern {
			if idx < 0 || idx >= len(p) {
				return nil, fmt.Errorf("pattern: item %q asserts input %d of %d", ji.Label, idx, len(p))
			}
			p[idx] = true
		}
		ts.Items = append(ts.Items, Item{
			Label:       ji.Label,
			ConfigIndex: ji.ConfigIndex,
			Pattern:     p,
			Timesteps:   ji.Timesteps,
			Repeat:      ji.Repeat,
			Hold:        ji.Hold,
		})
	}
	if err := ts.Validate(); err != nil {
		return nil, err
	}
	return ts, nil
}

// Binary format:
//
//	magic "NTS3" | u32 nameLen | name bytes
//	u32 L | u32 arch[L]
//	f64 theta | f64 leak | f64 wmax | u32 resetMode
//	u32 nConfigs | per config: per boundary: f64 weights (flat)
//	u32 nItems | per item:
//	    u32 labelLen | label | u32 configIndex | u32 timesteps | u32 repeat
//	    u32 flags (bit 0: hold)
//	    bit-packed pattern (ceil(inputs/8) bytes, LSB-first)
//
// All integers little-endian.
var binaryMagic = [4]byte{'N', 'T', 'S', '3'}

// BinarySize returns the length of the image WriteBinary writes for ts,
// computed from the set's shape without encoding it.
func BinarySize(ts *TestSet) int {
	// magic, name, layer count and widths, three f64 params, reset mode,
	// config count, item count
	n := len(binaryMagic) + 4 + len(ts.Name) + 4 + 4*len(ts.Arch) + 3*8 + 4 + 4 + 4
	for _, cfg := range ts.Configs {
		for _, w := range cfg.W {
			n += 8 * len(w)
		}
	}
	nBytes := (ts.Arch.Inputs() + 7) / 8
	for _, it := range ts.Items {
		// label length and label, config index, timesteps, repeat, flags,
		// packed pattern
		n += 4 + len(it.Label) + 4*4 + nBytes
	}
	return n
}

// WriteBinary encodes ts in the compact binary format.
func WriteBinary(w io.Writer, ts *TestSet) error {
	// neurotestd encodes a suite per download, so the buffer is large enough
	// to send a 16-23 MB image in a few hundred writes rather than thousands.
	bw := bufio.NewWriterSize(w, 64<<10)
	if _, err := bw.Write(binaryMagic[:]); err != nil {
		return err
	}
	// bufio.Writer errors are sticky: every Write after the first failure
	// is a no-op returning the same error, and the final Flush reports it.
	write := func(b []byte) {
		//lint:ignore unchecked-error bufio write errors are sticky; the final Flush reports the first failure
		bw.Write(b)
	}
	// Scalars pass through one reused 8-byte word; the weights (2 M in a
	// 4-layer merged suite) are encoded a chunk at a time.
	var word [8]byte
	writeU32 := func(v int) {
		binary.LittleEndian.PutUint32(word[:4], uint32(v))
		write(word[:4])
	}
	writeF64 := func(v float64) {
		binary.LittleEndian.PutUint64(word[:], math.Float64bits(v))
		write(word[:])
	}
	writeStr := func(s string) {
		writeU32(len(s))
		//lint:ignore unchecked-error bufio write errors are sticky; the final Flush reports the first failure
		bw.WriteString(s)
	}

	writeStr(ts.Name)
	writeU32(ts.Arch.Layers())
	for _, n := range ts.Arch {
		writeU32(n)
	}
	writeF64(ts.Params.Theta)
	writeF64(ts.Params.Leak)
	writeF64(ts.Params.WMax)
	writeU32(int(ts.Params.Reset))
	writeU32(len(ts.Configs))
	var chunk [4096]byte
	for _, cfg := range ts.Configs {
		for _, ws := range cfg.W {
			for len(ws) > 0 {
				n := min(len(ws), len(chunk)/8)
				for i, v := range ws[:n] {
					binary.LittleEndian.PutUint64(chunk[8*i:], math.Float64bits(v))
				}
				write(chunk[:8*n])
				ws = ws[n:]
			}
		}
	}
	writeU32(len(ts.Items))
	packed := make([]byte, (ts.Arch.Inputs()+7)/8)
	for _, it := range ts.Items {
		writeStr(it.Label)
		writeU32(it.ConfigIndex)
		writeU32(it.Timesteps)
		writeU32(it.Repeat)
		flags := 0
		if it.Hold {
			flags |= 1
		}
		writeU32(flags)
		clear(packed)
		for i, v := range it.Pattern {
			if v {
				packed[i/8] |= 1 << uint(i%8)
			}
		}
		write(packed)
	}
	return bw.Flush()
}

// ReadBinary decodes a TestSet from the compact binary format and validates
// it.
func ReadBinary(r io.Reader) (*TestSet, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("pattern: reading magic: %w", err)
	}
	if magic != binaryMagic {
		return nil, fmt.Errorf("pattern: bad magic %q", magic)
	}
	// Every value passes through one 8-byte word, zeroed by a failed read
	// so that a truncated value reads as 0.
	var firstErr error
	var word [8]byte
	read := func(n int) []byte {
		b := word[:n]
		if _, err := io.ReadFull(br, b); err != nil {
			clear(b)
			if firstErr == nil {
				firstErr = err
			}
		}
		return b
	}
	readU32 := func() int { return int(binary.LittleEndian.Uint32(read(4))) }
	readF64 := func() float64 { return math.Float64frombits(binary.LittleEndian.Uint64(read(8))) }
	readStr := func(n int) string {
		if n < 0 || n > 1<<20 {
			if firstErr == nil {
				firstErr = fmt.Errorf("pattern: unreasonable string length %d", n)
			}
			return ""
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(br, buf); err != nil && firstErr == nil {
			firstErr = err
		}
		return string(buf)
	}

	name := readStr(readU32())
	L := readU32()
	if firstErr != nil {
		return nil, firstErr
	}
	if L < 2 || L > 1024 {
		return nil, fmt.Errorf("pattern: unreasonable layer count %d", L)
	}
	arch := make(snn.Arch, L)
	for k := range arch {
		arch[k] = readU32()
	}
	if err := validateArch(arch); err != nil {
		return nil, err
	}
	params := snn.Params{Theta: readF64(), Leak: readF64(), WMax: readF64()}
	params.Reset = snn.ResetMode(readU32())
	if firstErr != nil {
		return nil, firstErr
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	ts := NewTestSet(name, arch, params)
	nConfigs := readU32()
	if nConfigs < 0 || nConfigs > 1<<20 {
		return nil, fmt.Errorf("pattern: unreasonable config count %d", nConfigs)
	}
	for c := 0; c < nConfigs; c++ {
		cfg := snn.New(arch, params)
		for b := range cfg.W {
			for i := range cfg.W[b] {
				cfg.W[b][i] = readF64()
			}
		}
		if firstErr != nil {
			return nil, firstErr
		}
		ts.Configs = append(ts.Configs, cfg)
	}
	nItems := readU32()
	if nItems < 0 || nItems > 1<<24 {
		return nil, fmt.Errorf("pattern: unreasonable item count %d", nItems)
	}
	nBytes := (arch.Inputs() + 7) / 8
	for i := 0; i < nItems; i++ {
		label := readStr(readU32())
		it := Item{
			Label:       label,
			ConfigIndex: readU32(),
			Timesteps:   readU32(),
			Repeat:      readU32(),
		}
		it.Hold = readU32()&1 != 0
		packed := make([]byte, nBytes)
		if _, err := io.ReadFull(br, packed); err != nil {
			return nil, err
		}
		p := snn.NewPattern(arch.Inputs())
		for j := range p {
			p[j] = packed[j/8]&(1<<uint(j%8)) != 0
		}
		it.Pattern = p
		ts.Items = append(ts.Items, it)
	}
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ts.Validate(); err != nil {
		return nil, err
	}
	return ts, nil
}
