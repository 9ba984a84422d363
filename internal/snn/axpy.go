package snn

// Element-wise float64 accumulation — the inner loop of both the simulator's
// dense integrate sweep and the fault simulator's downstream re-simulation.
// Per-element dst[i] += src[i] keeps one independent accumulator per output
// neuron, so a vectorized implementation performs the exact same IEEE-754
// addition per element as the scalar loop: the result is bit-identical by
// construction, not by tolerance (asserted by TestAddIntoBitExact).

// AddInto adds src into dst element-wise: dst[i] += src[i] for
// i < min(len(dst), len(src)). On amd64 with AVX2 (runtime-detected) the
// accumulation runs 4 doubles per instruction; everywhere else an unrolled
// scalar loop is used. Both paths round identically because each element is
// one IEEE-754 addition either way — no FMA, no reassociation.
func AddInto(dst, src []float64) {
	n := len(src)
	if n > len(dst) {
		n = len(dst)
	}
	if n == 0 {
		return
	}
	addInto(dst[:n], src[:n])
}

// MulAddInto accumulates a scaled vector: dst[i] += alpha*src[i] for
// i < min(len(dst), len(src)). Like AddInto, the AVX2 and portable paths
// round identically: every element is one IEEE-754 multiply followed by one
// IEEE-754 addition — never a fused multiply-add — so the result matches
// the scalar loop bit for bit (asserted by TestMulAddIntoBitExact).
func MulAddInto(dst, src []float64, alpha float64) {
	n := len(src)
	if n > len(dst) {
		n = len(dst)
	}
	if n == 0 {
		return
	}
	mulAddInto(dst[:n], src[:n], alpha)
}

// AddSumInto accumulates the sum of two vectors: dst[i] += a[i] + b[i] for
// i < min(len(dst), len(a), len(b)). The simulator reads weights through an
// offset with it: a is a row of weights, b the matching row of the offset.
// Each element is one IEEE-754 addition a[i]+b[i], rounded, then one
// addition into dst — the two roundings of writing w+o into a network and
// accumulating it with AddInto — so the AVX2 and portable paths match that
// two-step scalar loop bit for bit (asserted by TestAddSumIntoBitExact).
func AddSumInto(dst, a, b []float64) {
	n := min(len(dst), len(a), len(b))
	if n == 0 {
		return
	}
	addSumInto(dst[:n], a[:n], b[:n])
}

// addIntoGeneric is the portable accumulation loop, unrolled 4-wide with
// explicit slice caps so the compiler drops the per-element bounds checks.
// len(dst) == len(src) is the callers' contract (AddInto enforces it).
func addIntoGeneric(dst, src []float64) {
	n := len(dst)
	i := 0
	for ; i+4 <= n; i += 4 {
		d := dst[i : i+4 : i+4]
		s := src[i : i+4 : i+4]
		d[0] += s[0]
		d[1] += s[1]
		d[2] += s[2]
		d[3] += s[3]
	}
	for ; i < n; i++ {
		dst[i] += src[i]
	}
}

// addSumIntoGeneric is the portable summed accumulation. The right-hand
// side of each += is evaluated first, so a[i]+b[i] rounds before it is
// accumulated (Go fuses only multiply-adds). len(dst) == len(a) == len(b)
// is the callers' contract (AddSumInto enforces it).
func addSumIntoGeneric(dst, a, b []float64) {
	n := len(dst)
	i := 0
	for ; i+4 <= n; i += 4 {
		d := dst[i : i+4 : i+4]
		x := a[i : i+4 : i+4]
		y := b[i : i+4 : i+4]
		d[0] += x[0] + y[0]
		d[1] += x[1] + y[1]
		d[2] += x[2] + y[2]
		d[3] += x[3] + y[3]
	}
	for ; i < n; i++ {
		dst[i] += a[i] + b[i]
	}
}

// mulAddIntoGeneric is the portable scaled accumulation. The explicit
// float64 conversions force the product to round before the addition on
// every architecture (the spec lets compilers fuse x*y + z otherwise, which
// would diverge from the two-rounding AVX2 kernel).
func mulAddIntoGeneric(dst, src []float64, alpha float64) {
	n := len(dst)
	i := 0
	for ; i+4 <= n; i += 4 {
		d := dst[i : i+4 : i+4]
		s := src[i : i+4 : i+4]
		d[0] += float64(alpha * s[0])
		d[1] += float64(alpha * s[1])
		d[2] += float64(alpha * s[2])
		d[3] += float64(alpha * s[3])
	}
	for ; i < n; i++ {
		dst[i] += float64(alpha * src[i])
	}
}
