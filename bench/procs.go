package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// harness owns every child process and temp dir a run creates, so each
// exit path — success, failed check, error, SIGINT — releases them in one
// place.
type harness struct {
	repo string // repository root: where ./cmd/avserve lives
	tmp  string // per-run scratch dir, removed by close

	mu      sync.Mutex
	procs   []*proc
	avserve string // built binary, "" until needed
	stopped int    // children stopped and reaped
}

func newHarness(repo string) (*harness, error) {
	tmp, err := os.MkdirTemp("", "avbench-")
	if err != nil {
		return nil, fmt.Errorf("temp dir: %w", err)
	}
	return &harness{repo: repo, tmp: tmp}, nil
}

// close stops every child still running, waits for each, and removes the
// scratch dir.
func (h *harness) close() error {
	h.mu.Lock()
	procs := h.procs
	h.procs = nil
	h.mu.Unlock()
	for _, p := range procs {
		p.stop()
	}
	return os.RemoveAll(h.tmp)
}

// dir makes a fresh directory under the run's scratch dir.
func (h *harness) dir(name string) (string, error) {
	return os.MkdirTemp(h.tmp, name+"-")
}

// buildAvserve compiles cmd/avserve once per run into the scratch dir.
// Compile time is not part of any metric.
func (h *harness) buildAvserve(ctx context.Context) (string, error) {
	if h.avserve != "" {
		return h.avserve, nil
	}
	bin := filepath.Join(h.tmp, "avserve")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/avserve")
	cmd.Dir = h.repo
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/avserve: %v\n%s", err, out)
	}
	h.avserve = bin
	return bin, nil
}

// proc is one running avserve.
type proc struct {
	cmd  *exec.Cmd
	url  string
	done chan struct{} // closed once the process has been reaped
	once sync.Once
	h    *harness
}

// startAvserve launches avserve with args on a free loopback port and
// waits until /healthz answers.
func (h *harness) startAvserve(ctx context.Context, args ...string) (*proc, error) {
	bin, err := h.buildAvserve(ctx)
	if err != nil {
		return nil, err
	}
	var lastErr error
	// The port is free when chosen but another process may take it before
	// avserve binds; a child that exits early is retried on a new port.
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		p, err := h.launch(ctx, bin, port, args)
		if err == nil {
			return p, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

func (h *harness) launch(ctx context.Context, bin string, port int, args []string) (*proc, error) {
	addr := "127.0.0.1:" + strconv.Itoa(port)
	logf, err := os.CreateTemp(h.tmp, "avserve-*.log")
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = childAttr()
	p := &proc{cmd: cmd, url: "http://" + addr, done: make(chan struct{}), h: h}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start avserve: %w", err)
	}
	h.mu.Lock()
	h.procs = append(h.procs, p)
	h.mu.Unlock()
	go func() {
		_ = cmd.Wait()
		logf.Close()
		close(p.done)
	}()
	if err := p.waitHealthy(ctx); err != nil {
		p.stop()
		log, _ := os.ReadFile(logf.Name())
		return nil, fmt.Errorf("avserve %v: %w\n%s", args, err, log)
	}
	return p, nil
}

// waitHealthy polls /healthz until it answers 200, the process exits, or
// ten seconds pass.
func (p *proc) waitHealthy(ctx context.Context) error {
	c := &http.Client{Timeout: time.Second}
	defer c.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-p.done:
			return errors.New("exited before answering /healthz")
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		if resp, err := c.Get(p.url + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		// A process starts in about 10 ms; a coarser poll would add its
		// own step to setup_s.
		time.Sleep(time.Millisecond)
	}
	return errors.New("no /healthz answer within 10s")
}

// stop sends SIGTERM, escalates to SIGKILL after five seconds, and
// returns once the process has been reaped. It is safe to call twice.
func (p *proc) stop() {
	p.once.Do(func() {
		_ = p.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-p.done:
		case <-time.After(5 * time.Second):
			_ = p.cmd.Process.Kill()
			<-p.done
		}
		p.h.mu.Lock()
		p.h.stopped++
		for i, q := range p.h.procs {
			if q == p {
				p.h.procs = append(p.h.procs[:i], p.h.procs[i+1:]...)
				break
			}
		}
		p.h.mu.Unlock()
	})
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("free port: %w", err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// procStatusKB reads the named fields (VmHWM, RssAnon, ...) in KiB from
// /proc/<pid>/status. Missing fields read as 0.
func procStatusKB(pid int, fields ...string) (map[string]float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	want := make(map[string]bool, len(fields))
	for _, k := range fields {
		want[k] = true
	}
	out := make(map[string]float64, len(fields))
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, rest, ok := strings.Cut(sc.Text(), ":")
		if !ok || !want[key] {
			continue
		}
		num := strings.Fields(rest)
		if len(num) == 0 {
			continue
		}
		v, err := strconv.ParseFloat(num[0], 64)
		if err != nil {
			return nil, fmt.Errorf("/proc/%d/status %s: %w", pid, key, err)
		}
		out[key] = v
	}
	return out, sc.Err()
}

// statusMiB sums one /proc status field over the processes, in MiB.
func statusMiB(field string, procs ...*proc) (float64, error) {
	return pidsMiB(field, pids(procs)...)
}

func pids(procs []*proc) []int {
	out := make([]int, len(procs))
	for i, p := range procs {
		out[i] = p.cmd.Process.Pid
	}
	return out
}

// pidsMiB sums one /proc status field over the pids, in MiB.
func pidsMiB(field string, pids ...int) (float64, error) {
	var sum float64
	for _, pid := range pids {
		st, err := procStatusKB(pid, field)
		if err != nil {
			return 0, err
		}
		sum += st[field] / 1024
	}
	return sum, nil
}

// sampleRSS samples the summed VmRSS of pids every 100 ms until the
// returned stop function is called; stop returns the samples in MiB.
func sampleRSS(pids []int) (stop func() []float64) {
	done := make(chan struct{})
	out := make(chan []float64, 1)
	go func() {
		var samples []float64
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			if v, err := pidsMiB("VmRSS", pids...); err == nil {
				samples = append(samples, v)
			}
			select {
			case <-done:
				out <- samples
				return
			case <-tick.C:
			}
		}
	}()
	return func() []float64 {
		close(done)
		return <-out
	}
}

// stealShare starts measuring the share of this machine's CPU time that
// its hypervisor gave to other guests ("steal" in /proc/stat). The
// returned function gives the share since the call, or 0 where
// /proc/stat cannot be read, so that there every second counts as quiet.
func stealShare() func() float64 {
	t0, s0, err0 := readCPUStat()
	return func() float64 {
		t1, s1, err1 := readCPUStat()
		if err0 != nil || err1 != nil || t1 <= t0 {
			return 0
		}
		return (s1 - s0) / (t1 - t0)
	}
}

func readCPUStat() (total, steal float64, err error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	return parseCPULine(line)
}

// parseCPULine reads the aggregate "cpu" line of /proc/stat and returns
// the total of its first eight counters (user through steal; the guest
// counters after them are already counted in user) and the steal counter.
func parseCPULine(line string) (total, steal float64, err error) {
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("/proc/stat: want the aggregate cpu line, got %q", line)
	}
	for i, s := range f[1:9] {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("/proc/stat: %w", err)
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal, nil
}

// promSample maps a series ("name" or `name{label="v"}`) to its value.
type promSample map[string]float64

// parseProm reads the sample lines of a Prometheus text exposition,
// skipping comments and blank lines. The series key is the text before
// the value, labels included verbatim.
func parseProm(text string) (promSample, error) {
	out := make(promSample)
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics line %q: no value", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, nil
}

// scrape fetches and parses a process's /metrics.
func scrape(ctx context.Context, p *proc) (promSample, error) {
	c := newConn()
	defer c.CloseIdleConnections()
	code, _, body, err := fetch(ctx, c, p.url+"/metrics", true)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", p.url, err)
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: status %d", p.url, code)
	}
	return parseProm(string(body))
}

// scrapeAll sums the scrapes of several processes series by series.
func scrapeAll(ctx context.Context, procs ...*proc) (promSample, error) {
	sum := make(promSample)
	for _, p := range procs {
		m, err := scrape(ctx, p)
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			sum[k] += v
		}
	}
	return sum, nil
}

// delta returns after minus before, series by series.
func (after promSample) delta(before promSample) promSample {
	out := make(promSample, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// routeDurations returns, per route label, the count and the summed
// seconds of avserve_request_duration_seconds.
func (m promSample) routeDurations() map[string][2]float64 {
	out := make(map[string][2]float64)
	const prefix = "avserve_request_duration_seconds_"
	for k, v := range m {
		rest, ok := strings.CutPrefix(k, prefix)
		if !ok {
			continue
		}
		kind, labels, ok := strings.Cut(rest, "{")
		if !ok || (kind != "sum" && kind != "count") {
			continue
		}
		route := labelValue(labels, "route")
		cs := out[route]
		if kind == "count" {
			cs[0] = v
		} else {
			cs[1] = v
		}
		out[route] = cs
	}
	return out
}

// labelValue extracts one quoted label value from `a="x",b="y"}`.
func labelValue(labels, name string) string {
	_, rest, ok := strings.Cut(labels, name+`="`)
	if !ok {
		return ""
	}
	v, _, _ := strings.Cut(rest, `"`)
	return v
}
