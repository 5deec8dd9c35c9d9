package exp

// Lookup finds an experiment by ID.
func Lookup(id string) (*Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}
