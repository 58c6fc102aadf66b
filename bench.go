package kairos

import "kairos/internal/experiments"

// ExperimentScale bundles the fidelity knobs shared by the paper-replay
// experiments (kairosctl bench).
type ExperimentScale = experiments.Scale

// QuickScale trades precision for speed; used by benchmarks and CI.
func QuickScale() ExperimentScale { return experiments.QuickScale() }

// FullScale is the paper-fidelity setting.
func FullScale() ExperimentScale { return experiments.FullScale() }

// ExperimentIDs lists the registered experiment identifiers (the paper's
// table and figure numbers) in stable order.
func ExperimentIDs() []string { return experiments.IDs() }

// RunExperiment regenerates one of the paper's tables or figures and
// returns its rendered output.
func RunExperiment(id string, scale ExperimentScale) (string, error) {
	out, err := experiments.Run(id, scale)
	if err != nil {
		return "", err
	}
	return out.String(), nil
}
