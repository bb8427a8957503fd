package surrogate

import "math"

// exp is e**x with the same bits on every CPU: a transcription of the FMA
// branch of the Go runtime's amd64 math.Exp ($GOROOT/src/math/exp_amd64.s,
// after Shibata's SLEEF method), with every fused step an explicit
// math.FMA. On amd64, math.Exp takes that branch only when the CPU has AVX
// and FMA and otherwise rounds each product separately, so a surrogate
// answer computed through it would depend on the host. math.FMA is exact
// in software where the hardware lacks it, so this function is the FMA
// branch everywhere, and on an FMA host it is math.Exp bit for bit.
func exp(x float64) float64 {
	const (
		log2e    = 1.4426950408889634073599246810018920        // 1/ln 2
		ln2U     = 0.69314718055966295651160180568695068359375 // upper half of ln 2
		ln2L     = 0.28235290563031577122588448175013436025525412068e-12
		overflow = 7.09782712893384e+02
	)
	bits := math.Float64bits(x)
	if bits&^(1<<63) >= 0x7FF0000000000000 { // not finite
		if x < 0 {
			return 0 // -Inf
		}
		return x // NaN or +Inf
	}
	if x > overflow {
		return math.Inf(1)
	}
	// CVTSD2SL: round to nearest even; out of range gives the "integer
	// indefinite" MinInt32, which the exponent checks below turn into 0.
	t := math.RoundToEven(log2e * x)
	e := int32(math.MinInt32)
	if t > math.MinInt32 {
		e = int32(t)
	}
	fe := float64(e)
	x = math.FMA(-ln2U, fe, x)
	x = math.FMA(-ln2L, fe, x)
	x *= 0.0625
	// Taylor series of e**x - 1 for the reduced argument, then four
	// squarings y(y+2) undo the 1/16, the last one fused with the +1.
	p := 2.4801587301587301587e-5
	p = math.FMA(p, x, 1.9841269841269841270e-4)
	p = math.FMA(p, x, 1.3888888888888888889e-3)
	p = math.FMA(p, x, 8.3333333333333333333e-3)
	p = math.FMA(p, x, 4.1666666666666666667e-2)
	p = math.FMA(p, x, 1.6666666666666666667e-1)
	p = math.FMA(p, x, 0.5)
	p = math.FMA(p, x, 1.0)
	x *= p
	x *= x + 2
	x *= x + 2
	x *= x + 2
	x = math.FMA(x, x+2, 1)
	// x · 2**e, through the denormal range in two steps.
	e += 0x3FF
	if e >= 0x7FF {
		return math.Inf(1)
	}
	if e <= 0 {
		if e < -52 {
			return 0
		}
		x *= math.Float64frombits(uint64(e+0x3FE) << 52)
		e = 1
	}
	return x * math.Float64frombits(uint64(e)<<52)
}
