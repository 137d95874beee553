package drift

// StateOf reports a template's current state (StateHealthy when
// untracked).
func (d *Detector) StateOf(hash uint64) State {
	d.mu.Lock()
	defer d.mu.Unlock()
	if e, ok := d.entries[hash]; ok {
		return e.state
	}
	return StateHealthy
}
