package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark runs on shared hosts whose speed per core flips, many
// times a second, between a fast and a slow state that takes up to
// twice as long for the same work, and whose mix of the two moves over
// tens of seconds as other tenants come and go on the same physical
// cores (README.md, Findings). An untraced run therefore
//
//   - keeps itself to one CPU (pinOneCPU), so that it never measures
//     how well its own threads happen to overlap, and
//   - runs a calibration process beside the load, on the same CPU,
//     that times a short fixed workload every calibPeriod and runs none
//     of the program's code. Every time the run reports is at the
//     reference speed: the time measured, times refCalibNS over the
//     mean cost of the calibration slices that ran while it was
//     measured.
//
// A change to the program cannot move the calibration; a slower or
// faster host moves both.

// refCalibNS is one calibration slice's cost, in thread CPU
// nanoseconds, on the reference host in its fast state. Reported times
// are at this speed.
const refCalibNS = 110_000

// calibPeriod is how often the calibration process runs a slice.
const calibPeriod = 10 * time.Millisecond

// calibWindow is how many slices, centred on a moment, give the host's
// speed at that moment when none ran during the time being scaled.
const calibWindow = 10

// pinOneCPU restricts the process to the highest-numbered CPU it may
// run on and starts it again there, so that the Go runtime sizes itself
// for one CPU and every thread and child process inherits the mask. It
// returns without doing anything when the process already has one CPU,
// and an error when it cannot pin.
func pinOneCPU() error {
	var mask [16]uint64
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); e != 0 {
		return fmt.Errorf("sched_getaffinity: %w", e)
	}
	n, last := 0, -1
	for w, m := range mask {
		n += bits.OnesCount64(m)
		if m != 0 {
			last = 64*w + 63 - bits.LeadingZeros64(m)
		}
	}
	if n <= 1 {
		return nil
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	// The mask is the calling thread's; execve keeps it.
	runtime.LockOSThread()
	var one [16]uint64
	one[last/64] = 1 << (last % 64)
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(one), uintptr(unsafe.Pointer(&one))); e != 0 {
		return fmt.Errorf("sched_setaffinity: %w", e)
	}
	return syscall.Exec(exe, os.Args, os.Environ())
}

// threadCPU returns the calling thread's CPU time.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTime = 3
	syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// calibDoc is the calibration's encoding workload.
type calibDoc struct {
	Name   string             `json:"name"`
	Values []float64          `json:"values"`
	Labels map[string]float64 `json:"labels"`
}

// calibration is the fixed workload: Gaussian kernel sums, as a kernel
// density estimate makes, and a JSON round trip of a small document,
// as a request makes. It depends on nothing in the repository.
type calibration struct {
	xs   []float64
	doc  calibDoc
	sink float64
}

func newCalibration() *calibration {
	c := &calibration{xs: make([]float64, 256), doc: calibDoc{Name: "calibration", Labels: map[string]float64{}}}
	for i := range c.xs {
		c.xs[i] = math.Sin(float64(i)) * 3
	}
	c.doc.Values = make([]float64, 128)
	for i := range c.doc.Values {
		c.doc.Values[i] = math.Cos(float64(i)) * 1e3
		if i%8 == 0 {
			c.doc.Labels["label-"+strconv.Itoa(i)] = c.doc.Values[i]
		}
	}
	return c
}

// slice runs the workload once and returns the thread CPU time it took.
func (c *calibration) slice() time.Duration {
	start := threadCPU()
	for g := 0; g < 8; g++ {
		at := -4 + float64(g)
		s := 0.0
		for _, x := range c.xs {
			d := (at - x) / 0.5
			s += math.Exp(-0.5 * d * d)
		}
		c.sink += s
	}
	b, err := json.Marshal(&c.doc)
	if err != nil {
		panic(err)
	}
	var back calibDoc
	if err := json.Unmarshal(b, &back); err != nil {
		panic(err)
	}
	c.sink += back.Values[0]
	return threadCPU() - start
}

// speedPoint is one calibration slice: when it ran and what it cost.
type speedPoint struct {
	at   time.Time
	cost float64
}

// serveCalibration is the calibration process. It runs a slice every
// calibPeriod on a thread of its own, and for every byte it reads
// writes the slices since its last answer, one "unix-ns cost-ns" line
// each, and an empty line. It returns when its input closes.
func serveCalibration(in io.Reader, out io.Writer) error {
	var (
		mu     sync.Mutex
		points []speedPoint
		done   = make(chan struct{})
		wg     sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		runtime.LockOSThread()
		c := newCalibration()
		tick := time.NewTicker(calibPeriod)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			start := time.Now()
			d := c.slice()
			mu.Lock()
			points = append(points, speedPoint{at: start, cost: float64(d)})
			mu.Unlock()
		}
	}()
	defer wg.Wait()
	defer close(done)
	r, w := bufio.NewReader(in), bufio.NewWriter(out)
	for {
		if _, err := r.ReadByte(); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
		mu.Lock()
		ps := points
		points = nil
		mu.Unlock()
		for _, p := range ps {
			fmt.Fprintf(w, "%d %.0f\n", p.at.UnixNano(), p.cost)
		}
		fmt.Fprintln(w)
		if err := w.Flush(); err != nil {
			return err
		}
	}
}

// hostSpeed drives the calibration process and keeps its timeline.
type hostSpeed struct {
	cmd    *exec.Cmd
	in     io.WriteCloser
	out    *bufio.Reader
	points []speedPoint
}

func startHostSpeed() (*hostSpeed, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "--calibrator")
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start calibration process: %w", err)
	}
	return &hostSpeed{cmd: cmd, in: in, out: bufio.NewReader(out)}, nil
}

// collect fetches the slices the calibration process ran since the
// last collect.
func (h *hostSpeed) collect() error {
	if _, err := h.in.Write([]byte{'c'}); err != nil {
		return fmt.Errorf("calibration process: %w", err)
	}
	for {
		line, err := h.out.ReadString('\n')
		if err != nil {
			return fmt.Errorf("calibration process: %w", err)
		}
		line = strings.TrimSpace(line)
		if line == "" {
			return nil
		}
		var at int64
		var cost float64
		if _, err := fmt.Sscanf(line, "%d %g", &at, &cost); err != nil || cost <= 0 {
			return fmt.Errorf("calibration process answered %q", line)
		}
		h.points = append(h.points, speedPoint{at: time.Unix(0, at), cost: cost})
	}
}

// scaleOver returns the factor that takes a time measured from a to b
// to the reference speed: refCalibNS over the mean cost of the slices
// that ran from one calibPeriod before a to one after b, or of the
// calibWindow slices nearest the middle when none ran then. The host
// flips between its states every few tens of milliseconds, so a
// request is scaled by the state it ran in, not by a longer average.
func (h *hostSpeed) scaleOver(a, b time.Time) float64 {
	i := h.search(a.Add(-calibPeriod))
	j := h.search(b.Add(calibPeriod))
	if i == j {
		i = max(0, min(i-calibWindow/2, len(h.points)-calibWindow))
		j = min(len(h.points), i+calibWindow)
	}
	return refCalibNS / meanCost(h.points[i:j])
}

// search returns the index of the first slice that ran at or after t.
func (h *hostSpeed) search(t time.Time) int {
	return sort.Search(len(h.points), func(i int) bool { return !h.points[i].at.Before(t) })
}

func meanCost(ps []speedPoint) float64 {
	s := 0.0
	for _, p := range ps {
		s += p.cost
	}
	return s / float64(len(ps))
}

// costs returns every calibration cost collected.
func (h *hostSpeed) costs() []float64 {
	out := make([]float64, len(h.points))
	for i, p := range h.points {
		out[i] = p.cost
	}
	return out
}

// close ends the calibration process and waits for it.
func (h *hostSpeed) close() error {
	h.in.Close()
	return h.cmd.Wait()
}
