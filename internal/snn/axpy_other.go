//go:build !amd64

package snn

func addInto(dst, src []float64) {
	addIntoGeneric(dst, src)
}

func mulAddInto(dst, src []float64, alpha float64) {
	mulAddIntoGeneric(dst, src, alpha)
}

func addSumInto(dst, a, b []float64) {
	addSumIntoGeneric(dst, a, b)
}
