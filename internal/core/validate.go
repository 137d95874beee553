package core

import (
	"errors"

	"qoadvisor/internal/exec"
	"qoadvisor/internal/regression"
)

// DefaultValidationThreshold is the acceptance cutoff on the predicted
// PNhours delta. The paper's production setting is -0.1 for its SCOPE
// workloads and is explicitly a per-workload knob ("the threshold can be
// increased or decreased based on how aggressive we want to be", §4.3);
// the simulator's delta scale is roughly 2-3x more compressed than the
// production workloads', so the default here is -0.05.
const DefaultValidationThreshold = -0.05

// Validator is the Validation task: a supervised linear-regression model
// that predicts the PNhours delta of a rule flip from the DataRead and
// DataWritten deltas observed in a single flighting run (§4.3). The
// intuition: "if with the new configuration a job reads and writes less
// data, this will likely translate into better runtime", and unlike
// latency those I/O volumes are stable across runs. The zero Validator
// is ready to use.
type Validator struct {
	samples []regression.Sample
	model   *regression.Linear
}

// validationLambda is the ridge penalty used when fitting.
const validationLambda = 1e-6

// Deltas computes the (DataRead delta, DataWritten delta, PNhours delta)
// triple of an A/B flight, using the new/old - 1 convention.
func Deltas(base, treat exec.Metrics) (readDelta, writtenDelta, pnDelta float64) {
	return relDelta(base.DataRead, treat.DataRead),
		relDelta(base.DataWritten, treat.DataWritten),
		relDelta(base.PNHours, treat.PNHours)
}

func relDelta(oldV, newV float64) float64 {
	if oldV == 0 {
		return 0
	}
	return newV/oldV - 1
}

// Observe adds one flighting observation to the training dataset: the
// single flight's observed PNhours delta plus the DataRead and
// DataWritten deltas ("in addition to the PNhours metric itself, DataRead
// and DataWritten deltas are good indicators"), labelled with the PNhours
// delta of the job's next occurrence. The date indexes the sample for
// temporal splitting.
func (v *Validator) Observe(date int, pnObserved, readDelta, writtenDelta, futurePNDelta float64) {
	v.samples = append(v.samples, regression.Sample{
		Date: date,
		X:    []float64{pnObserved, readDelta, writtenDelta},
		Y:    futurePNDelta,
	})
}

// SampleCount returns the size of the gathered dataset.
func (v *Validator) SampleCount() int { return len(v.samples) }

// Train fits the model on all gathered samples.
func (v *Validator) Train() error {
	if len(v.samples) < 4 {
		return errors.New("core: not enough validation samples")
	}
	m, err := regression.FitSamples(v.samples, validationLambda)
	if err != nil {
		return err
	}
	v.model = m
	return nil
}

// Predict returns the predicted future PNhours delta of a flip from one
// flight's observed deltas. It panics if the model is untrained.
func (v *Validator) Predict(pnObserved, readDelta, writtenDelta float64) float64 {
	return v.model.Predict([]float64{pnObserved, readDelta, writtenDelta})
}

// Accept decides whether a flip passes validation: the predicted future
// PNhours delta must be below DefaultValidationThreshold.
func (v *Validator) Accept(pnObserved, readDelta, writtenDelta float64) bool {
	return v.Predict(pnObserved, readDelta, writtenDelta) < DefaultValidationThreshold
}

// Model exposes the fitted model for reporting (nil if untrained).
func (v *Validator) Model() *regression.Linear { return v.model }
