// Package benchdoc is the schema of BENCH.json, the committed record
// of cmd/ptibench's gated experiments that cmd/benchdiff holds CI to.
//
// A doc is a flat list of rows, one measured metric each. A row may
// carry gates, each bounding that row's metric: value Op bound. The
// bound is one of
//
//   - a constant: Bound;
//   - a reference value plus Bound, when From is set: the metric's
//     drift from From is compared against Bound (value - From op
//     Bound);
//   - Bound times another row's metric in the same run and
//     experiment, when Ref is set.
//
// Gates travel with the rows in both the baseline and the candidate,
// so a gate changed in the emitting code, its From included, shows up
// as a declaration that differs from the committed baseline's.
package benchdoc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// Doc is one ptibench run: the seed every experiment ran with and the
// rows of whichever experiments ran.
type Doc struct {
	Seed int64 `json:"seed"`
	Rows []Row `json:"rows"`
}

// Row is one metric of one experiment row.
type Row struct {
	Experiment string  `json:"experiment"`
	Row        string  `json:"row"`
	Metric     string  `json:"metric"`
	Value      float64 `json:"value"`
	Unit       string  `json:"unit"`
	Gates      []Gate  `json:"gates,omitempty"`
}

// Gate bounds its row's metric. Op is one of ==, <, <=, > and >=; see
// the package comment for how Bound, From and Ref form the bound.
type Gate struct {
	Op    string  `json:"op"`
	Bound float64 `json:"bound"`
	From  float64 `json:"from,omitempty"`
	Ref   *Ref    `json:"ref,omitempty"`
}

// Ref names another row's metric in the same experiment.
type Ref struct {
	Row    string `json:"row"`
	Metric string `json:"metric"`
}

// Write renders the doc one row per line, so a changed value or gate
// is a one-line diff of the committed baseline.
func (d Doc) Write(path string) error {
	var b bytes.Buffer
	fmt.Fprintf(&b, "{\n  \"seed\": %d,\n  \"rows\": [\n", d.Seed)
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false) // keep gate ops such as "<=" readable
	for i, r := range d.Rows {
		b.WriteString("    ")
		if err := enc.Encode(r); err != nil {
			return err
		}
		if i < len(d.Rows)-1 {
			b.Truncate(b.Len() - 1)
			b.WriteString(",\n")
		}
	}
	b.WriteString("  ]\n}\n")
	return os.WriteFile(path, b.Bytes(), 0o644)
}
