package analysis

// All returns the aqlint analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		Crashclean, Cyclecost, Detrand, Errdrop,
		Maporder, Spanpair,
	}
}
