package main

import (
	"context"
	"encoding/json"
	"encoding/xml"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Host speed calibration.
//
// The benchmark runs on shared machines whose speed drifts by a factor
// of two to four within an hour: on a 2-vCPU VM, stream's throughput
// went from 77k ops/s to 63k between runs of the same binary a few
// minutes apart and to 28k within the hour, and join's CPU time per op
// from 1.4 to 3.6 ms. Medians over a run's segments cannot remove a
// slowdown that lasts longer than a run. So
// an untraced run measures the machine's speed between its segments,
// with a fixed reference task that does not touch the program, and
// reports every time metric at the reference speed: a measured time is
// divided by how much slower than refUnit the reference ran next to
// it, and a rate multiplied by it. A change to the program moves the
// reported figures as it moves the raw ones; a slower or faster
// machine moves both the workload and the reference, and cancels out.
// record.json keeps the raw figures and every calibration.

const (
	// calibLen is how long one calibration measures.
	calibLen = 250 * time.Millisecond
	// refUnit is the reference task's time per unit per worker that
	// the reported figures are scaled to (about what a 2-vCPU VM of the
	// kind the README's figures come from takes when quiet).
	refUnit = 75 * time.Microsecond
	// calibFlag runs the reference task instead of a workload.
	calibFlag = "calibrate"
)

// calibration is one run of the reference task: units completed by
// workers goroutines in wall time, using cpu of process CPU time.
type calibration struct {
	Units   int64 `json:"units"`
	Workers int   `json:"workers"`
	WallNs  int64 `json:"wall_ns"`
	CPUNs   int64 `json:"cpu_ns"`
}

// slow is how many times slower than refUnit a unit ran in wall time
// on each worker; slowCPU the same in CPU time.
func (c calibration) slow() float64 {
	return float64(c.WallNs) * float64(c.Workers) / float64(c.Units) / float64(refUnit)
}
func (c calibration) slowCPU() float64 {
	return float64(c.CPUNs) / float64(c.Units) / float64(refUnit)
}

// refRecord is the reference task's input: a fixed record, the same on
// every run and every seed.
type refRecord struct {
	Name  string    `json:"name" xml:"name"`
	Count int       `json:"count" xml:"count"`
	Score float64   `json:"score" xml:"score"`
	Tags  []string  `json:"tags" xml:"tag"`
	Items []refItem `json:"items" xml:"item"`
}

type refItem struct {
	SKU   string  `json:"sku" xml:"sku,attr"`
	Qty   int     `json:"qty" xml:"qty"`
	Price float64 `json:"price" xml:"price"`
	Note  string  `json:"note" xml:"note"`
}

func newRefRecord() refRecord {
	r := refRecord{Name: "reference", Count: 12, Score: 0.875, Tags: []string{"alpha", "beta", "gamma", "delta"}}
	for i := 0; i < 8; i++ {
		r.Items = append(r.Items, refItem{SKU: "sku-" + strconv.Itoa(i), Qty: i + 1, Price: 1.25 * float64(i+1), Note: "item note " + strconv.Itoa(i)})
	}
	return r
}

// refTask is one unit of the reference: a JSON and an XML round trip
// of the record, from the standard library alone, so its cost depends
// on the machine and the Go toolchain and not on the program.
func refTask(r *refRecord) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	var j refRecord
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	if b, err = xml.Marshal(r); err != nil {
		return err
	}
	var x refRecord
	if err := xml.Unmarshal(b, &x); err != nil {
		return err
	}
	if len(j.Items) != len(r.Items) || len(x.Items) != len(r.Items) {
		return fmt.Errorf("reference round trip lost items")
	}
	return nil
}

// runReference runs the reference task on GOMAXPROCS goroutines for d.
func runReference(d time.Duration) (calibration, error) {
	workers := runtime.GOMAXPROCS(0)
	var (
		units atomic.Int64
		stop  atomic.Bool
		wg    sync.WaitGroup
		errs  = make(chan error, workers)
	)
	cpu0, start := cpuTime(), time.Now()
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := newRefRecord()
			for !stop.Load() {
				if err := refTask(&r); err != nil {
					errs <- err
					return
				}
				units.Add(1)
			}
		}()
	}
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
	c := calibration{Units: units.Load(), Workers: workers, WallNs: int64(time.Since(start)), CPUNs: int64(cpuTime() - cpu0)}
	select {
	case err := <-errs:
		return c, err
	default:
	}
	if c.Units < 1 {
		return c, fmt.Errorf("reference completed no unit in %s", d)
	}
	return c, nil
}

// calibrateMain is the body of a calibration process: it runs the
// reference and prints the calibration as one JSON line.
func calibrateMain(d time.Duration, stdout io.Writer) int {
	c, err := runReference(d)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: calibration: %v\n", err)
		return 1
	}
	line, _ := json.Marshal(c)
	fmt.Fprintln(stdout, string(line))
	return 0
}

// calibrate measures the machine's speed in a child process of this
// binary, so the reference runs on a heap and a scheduler of its own
// that no workload state can slow down. It waits for the child to end.
func calibrate() (calibration, error) {
	exe, err := os.Executable()
	if err != nil {
		return calibration{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "--"+calibFlag, calibLen.String())
	// The reference runs on as many Ps as the workload does.
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(runtime.GOMAXPROCS(0)))
	out, err := cmd.Output()
	if err != nil {
		return calibration{}, fmt.Errorf("calibration process: %w", err)
	}
	var c calibration
	if err := json.Unmarshal(out, &c); err != nil {
		return calibration{}, fmt.Errorf("calibration output %q: %w", out, err)
	}
	if c.Units < 1 || c.Workers < 1 {
		return calibration{}, fmt.Errorf("calibration output %q: no units", out)
	}
	return c, nil
}

// speed is how much slower than the reference speed a stretch of a run
// ran: wall scales wall times and rates, cpu scales CPU time. The zero
// value means "not calibrated" and scales by 1.
type speed struct{ wall, cpu float64 }

func (s speed) wallScale() float64 {
	if s.wall <= 0 {
		return 1
	}
	return s.wall
}

func (s speed) cpuScale() float64 {
	if s.cpu <= 0 {
		return 1
	}
	return s.cpu
}

// between is the speed over a segment measured by the calibrations
// just before and just after it: their geometric mean.
func between(a, b calibration) speed {
	return speed{math.Sqrt(a.slow() * b.slow()), math.Sqrt(a.slowCPU() * b.slowCPU())}
}

// meanSpeed is the geometric mean of ss; uncalibrated entries count
// as 1.
func meanSpeed(ss []speed) speed {
	if len(ss) == 0 {
		return speed{}
	}
	var lw, lc float64
	for _, s := range ss {
		lw += math.Log(s.wallScale())
		lc += math.Log(s.cpuScale())
	}
	n := float64(len(ss))
	return speed{math.Exp(lw / n), math.Exp(lc / n)}
}
