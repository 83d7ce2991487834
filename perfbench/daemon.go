package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one running cachemapd process, started with its default flags
// plus whatever the workload needs, listening on an ephemeral loopback
// port.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	log    string // path of the daemon's stderr log
	done   chan struct{}
	client *http.Client
}

var listenRE = regexp.MustCompile(`msg=listening addr=(\S+)`)

// startDaemon launches bin with extra flags and returns once /healthz
// answers 200. The daemon's stderr (its access log) goes to logPath.
func startDaemon(bin, logPath string, client *http.Client, extra ...string) (*daemon, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	args := append([]string{"-addr", "127.0.0.1:0"}, extra...)
	cmd := exec.Command(bin, args...)
	// The daemon dies with the benchmark even when the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stdout = logf
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	logf.Close() // the child holds its own descriptor
	d := &daemon{cmd: cmd, log: logPath, done: make(chan struct{}), client: client}
	go func() {
		cmd.Wait()
		close(d.done)
	}()

	deadline := time.Now().Add(30 * time.Second)
	for d.base == "" {
		select {
		case <-d.done:
			return nil, fmt.Errorf("cachemapd exited during start-up: %s", tail(logPath))
		default:
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("cachemapd did not report its address: %s", tail(logPath))
		}
		if b, err := os.ReadFile(logPath); err == nil {
			if m := listenRE.FindSubmatch(b); m != nil {
				d.base = "http://" + string(m[1])
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	for {
		resp, err := client.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("cachemapd /healthz not ready: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop sends SIGTERM (the daemon drains and flushes its plan store) and
// waits for the process to exit, killing it if the drain hangs.
func (d *daemon) stop() error {
	if d == nil {
		return nil
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
		return errors.New("cachemapd did not drain within 20s; killed")
	}
	if st := d.cmd.ProcessState; st != nil && !st.Success() {
		return fmt.Errorf("cachemapd exited with %v: %s", st, tail(d.log))
	}
	return nil
}

// tail returns the last lines of a log file for error messages.
func tail(path string) string {
	b, _ := os.ReadFile(path)
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) > 5 {
		lines = lines[len(lines)-5:]
	}
	return strings.Join(lines, " | ")
}

// procStats reads the daemon's cumulative user+system CPU time and its
// peak resident set size (VmHWM) from /proc.
func (d *daemon) procStats() (cpu time.Duration, peakRSSMB float64, err error) {
	pid := d.cmd.Process.Pid
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "stat"))
	if err != nil {
		return 0, 0, err
	}
	// The command name (field 2) may contain spaces; fields after it are
	// space separated. utime and stime are fields 14 and 15, in clock ticks
	// of USER_HZ = 100 on Linux.
	rest := b[bytes.LastIndexByte(b, ')')+2:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("parsing /proc/%d/stat", pid)
	}
	cpu = time.Duration(ut+st) * 10 * time.Millisecond

	s, err := os.Open(filepath.Join("/proc", strconv.Itoa(pid), "status"))
	if err != nil {
		return 0, 0, err
	}
	defer s.Close()
	sc := bufio.NewScanner(s)
	for sc.Scan() {
		if line := sc.Text(); strings.HasPrefix(line, "VmHWM:") {
			kb, err := strconv.ParseFloat(strings.Fields(line)[1], 64)
			if err != nil {
				return 0, 0, err
			}
			return cpu, kb / 1024, nil
		}
	}
	return 0, 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// counters is one scrape of the daemon's /metrics: each metric name mapped
// to the sum of its samples over all label sets.
type counters map[string]float64

func (d *daemon) scrape() (counters, error) {
	resp, err := d.client.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: %s", resp.Status)
	}
	out := counters{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		if i := strings.Index(line, " # "); i >= 0 {
			line = line[:i] // drop an OpenMetrics exemplar
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			continue
		}
		name := f[0]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			continue
		}
		out[name] += v
	}
	return out, sc.Err()
}

// delta returns after[name] - before[name].
func delta(before, after counters, name string) float64 { return after[name] - before[name] }
