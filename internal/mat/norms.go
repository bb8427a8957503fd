package mat

import "math"

// InfOpNorm returns the operator infinity norm (max absolute row sum).
func InfOpNorm(m *Dense) float64 {
	var mx float64
	for i := 0; i < m.Rows(); i++ {
		var s float64
		for _, v := range m.Row(i) {
			s += math.Abs(v)
		}
		if s > mx {
			mx = s
		}
	}
	return mx
}

// Residual returns ||A·x − b||_inf.
func Residual(a *Dense, x, b []float64) float64 {
	ax := a.MulVec(x)
	var mx float64
	for i, v := range ax {
		if d := math.Abs(v - b[i]); d > mx {
			mx = d
		}
	}
	return mx
}

// RelativeResidual returns ||A·x − b||_inf / (||A||_inf · ||x||_inf + ||b||_inf),
// the standard backward-error-style check for a computed solution. It
// returns 0 for an empty system.
func RelativeResidual(a *Dense, x, b []float64) float64 {
	den := float64(InfOpNorm(a)*InfNorm(x)) + InfNorm(b)
	if den == 0 {
		return 0
	}
	return Residual(a, x, b) / den
}
