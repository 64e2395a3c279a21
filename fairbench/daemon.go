package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"fairtcim/internal/server"
)

// daemon is one running fairtcimd child process.
type daemon struct {
	cmd     *exec.Cmd
	addr    string
	drained chan struct{} // closed once stderr reaches EOF
	mu      sync.Mutex
	stderr  bytes.Buffer // everything the daemon logged, for diagnostics
}

var listenRE = regexp.MustCompile(`listening on (\S+)`)

// startDaemon spawns fairtcimd on an OS-assigned loopback port serving the
// graph file under both names, with persistence under stateDir, and
// returns once it listens.
func startDaemon(bin, graphPath, stateDir string) (*daemon, error) {
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-graph", graphName+"="+graphPath,
		"-graph", dynGraphName+"="+graphPath,
		"-state-dir", stateDir)
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting fairtcimd: %w", err)
	}
	d := &daemon{cmd: cmd, drained: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		defer close(d.drained)
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.stderr.WriteString(line + "\n")
			d.mu.Unlock()
			if m := listenRE.FindStringSubmatch(line); m != nil {
				select {
				case addrc <- m[1]:
				default:
				}
			}
		}
		_, _ = io.Copy(io.Discard, pipe) // a line over the scanner limit
	}()
	select {
	case d.addr = <-addrc:
		return d, nil
	case <-d.drained:
		_ = cmd.Wait()
		return nil, fmt.Errorf("fairtcimd exited before listening: %s", d.log())
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("fairtcimd did not listen within 30s")
	}
}

func (d *daemon) log() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.TrimSpace(d.stderr.String())
}

func (d *daemon) url(path string) string { return "http://" + d.addr + path }

// stop sends SIGTERM and waits for the process to exit. The daemon drains
// in-flight requests and write-behind sketch flushes before exiting, so
// the caller may remove the state dir afterwards. A daemon still alive
// after 60s is killed.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.drained:
	case <-time.After(60 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.drained
	}
	if err := d.cmd.Wait(); err != nil {
		return fmt.Errorf("fairtcimd exit: %v: %s", err, d.log())
	}
	return nil
}

// cpuTicks is the daemon's user+system CPU time in clock ticks.
func (d *daemon) cpuTicks() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return ut + st, nil
}

// clockTicksPerSec is Linux's USER_HZ, the unit of /proc/<pid>/stat times.
const clockTicksPerSec = 100

// peakRSSMB is the daemon's peak resident set (VmHWM) in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// stats fetches /v1/stats.
func (d *daemon) stats(c *http.Client) (server.StatsResponse, error) {
	var st server.StatsResponse
	resp, err := c.Get(d.url("/v1/stats"))
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/v1/stats: status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// waitFlushes polls /v1/stats until no write-behind sketch flush is in
// flight: the untimed sync point between the build and reload passes.
func (d *daemon) waitFlushes(c *http.Client) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, err := d.stats(c)
		if err != nil {
			return err
		}
		if st.Cache.FlushesInFlight == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("write-behind flushes still in flight after 60s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
