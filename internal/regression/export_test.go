package regression

// Predict evaluates the polynomial at x.
func (p *Polynomial) Predict(x float64) float64 {
	y := 0.0
	pow := 1.0
	for _, c := range p.Coef {
		y += c * pow
		pow *= x
	}
	return y
}
