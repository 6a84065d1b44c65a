package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
)

// Machine-readable benchmark output. xbench -json writes one BENCH_*.json
// file per figure/table/ablation so the performance trajectory of the
// repository can be tracked across commits by diffing or plotting these
// files.

// MeasurementJSON is the serialized form of one Measurement. Virtual costs
// (total_s, cpu_s) are machine independent; wall_s and allocs_per_op track
// the simulation's real cost so wall-clock and allocation regressions are
// visible in the benchmark files.
type MeasurementJSON struct {
	Query       string  `json:"query"`
	Strategy    string  `json:"strategy"`
	SF          float64 `json:"sf"`
	Count       int     `json:"count"`
	TotalSec    float64 `json:"total_s"`
	CPUSec      float64 `json:"cpu_s"`
	WallSec     float64 `json:"wall_s"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// AblationRowJSON is the serialized form of one AblationRow.
type AblationRowJSON struct {
	Label    string  `json:"label"`
	Count    int     `json:"count"`
	TotalSec float64 `json:"total_s"`
	CPUSec   float64 `json:"cpu_s"`
	Clusters int64   `json:"clusters"`
	Notes    string  `json:"notes,omitempty"`
}

type benchFile struct {
	Name         string            `json:"name"`
	Title        string            `json:"title"`
	Measurements []MeasurementJSON `json:"measurements,omitempty"`
	Rows         []AblationRowJSON `json:"rows,omitempty"`
}

func writeJSON(dir, name string, f benchFile) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "BENCH_"+name+".json"), append(data, '\n'), 0o644)
}

// WriteMeasurementsJSON writes ms to dir/BENCH_<name>.json.
func WriteMeasurementsJSON(dir, name, title string, ms []Measurement) error {
	f := benchFile{Name: name, Title: title}
	for _, m := range ms {
		f.Measurements = append(f.Measurements, MeasurementJSON{
			Query:       m.Query,
			Strategy:    m.Strategy.String(),
			SF:          m.SF,
			Count:       m.Count,
			TotalSec:    m.Total.Seconds(),
			CPUSec:      m.CPU.Seconds(),
			WallSec:     m.Wall.Seconds(),
			AllocsPerOp: m.Allocs,
		})
	}
	return writeJSON(dir, name, f)
}

// WriteAblationJSON writes rows to dir/BENCH_ablation_<name>.json.
func WriteAblationJSON(dir, name, title string, rows []AblationRow) error {
	f := benchFile{Name: "ablation_" + name, Title: title}
	for _, r := range rows {
		f.Rows = append(f.Rows, AblationRowJSON{
			Label:    r.Label,
			Count:    r.Count,
			TotalSec: r.Total.Seconds(),
			CPUSec:   r.CPU.Seconds(),
			Clusters: r.Clusters,
			Notes:    r.Extra,
		})
	}
	return writeJSON(dir, "ablation_"+name, f)
}
