package experiments

import (
	"qoadvisor/internal/core"
	"qoadvisor/internal/regression"
)

// ValidationAccuracyResult reproduces Figure 9: the validation model is
// trained on the first week of flighting observations and evaluated on
// the second week; among test jobs whose predicted PNhours delta clears
// the -0.1 threshold, the paper reports 85% with actual delta < -0.1 and
// 91% with actual delta < 0.
type ValidationAccuracyResult struct {
	TrainSamples int
	TestSamples  int
	// Points pairs predicted and actual PNhours deltas on the test set.
	Points []ValidationPoint
	// Among predictions below the threshold:
	AcceptedCount    int
	FracActualBelowT float64 // actual < threshold
	FracActualBelow0 float64 // actual < 0
	Model            *regression.Linear
	RSquaredOnTest   float64
	Threshold        float64
}

// ValidationPoint is one test-set prediction.
type ValidationPoint struct {
	JobID     string
	Predicted float64
	Actual    float64
}

// ValidationAccuracy runs the Figure 9 experiment: gather 14 days of
// flights, train on days 1-7, test on days 8-14, using the production
// acceptance threshold.
func (l *Lab) ValidationAccuracy() (*ValidationAccuracyResult, error) {
	obs, err := l.flightsThrough(flightDays)
	if err != nil {
		return nil, err
	}
	samples := observationsToSamples(obs)
	train, test := regression.TemporalSplit(samples, 8)

	const threshold = core.DefaultValidationThreshold
	v := new(core.Validator)
	for _, s := range train {
		v.Observe(s.Date, s.X[0], s.X[1], s.X[2], s.Y)
	}
	if err := v.Train(); err != nil {
		return nil, err
	}

	res := &ValidationAccuracyResult{
		TrainSamples: len(train),
		TestSamples:  len(test),
		Model:        v.Model(),
		Threshold:    threshold,
	}
	var preds, actuals []float64
	belowT, below0 := 0, 0
	testObs := obs[len(obs)-len(test):]
	for i, s := range test {
		pred := v.Predict(s.X[0], s.X[1], s.X[2])
		jobID := ""
		if i < len(testObs) {
			jobID = testObs[i].JobID
		}
		res.Points = append(res.Points, ValidationPoint{JobID: jobID, Predicted: pred, Actual: s.Y})
		preds = append(preds, pred)
		actuals = append(actuals, s.Y)
		if pred < threshold {
			res.AcceptedCount++
			if s.Y < threshold {
				belowT++
			}
			if s.Y < 0 {
				below0++
			}
		}
	}
	if res.AcceptedCount > 0 {
		res.FracActualBelowT = float64(belowT) / float64(res.AcceptedCount)
		res.FracActualBelow0 = float64(below0) / float64(res.AcceptedCount)
	}
	res.RSquaredOnTest = regression.RSquared(actuals, preds)
	return res, nil
}
