package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// stackBinaries are the unmodified commands the benchmark stands up.
var stackBinaries = []string{"vqgen", "vqserve", "vqfront"}

// buildStack compiles the stack's commands from the checkout at root
// into binDir. The Go build cache makes a repeat a sub-second no-op.
func buildStack(ctx context.Context, root, binDir string) error {
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return err
	}
	args := []string{"build", "-o", binDir + string(filepath.Separator)}
	for _, b := range stackBinaries {
		args = append(args, "./cmd/"+b)
	}
	cmd := exec.CommandContext(ctx, "go", args...)
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building the stack: %w\n%s", err, out)
	}
	return nil
}

// proc is one child process of the stack. Its output goes to a log file
// under benchmark/out/; done closes when the process has been reaped.
type proc struct {
	name    string
	url     string
	cmd     *exec.Cmd
	logPath string
	done    chan struct{}
	bootMS  float64 // spawn -> GET /params answers 200
}

// freeAddr asks the kernel for an unused loopback port. The port is
// released before the child binds it, so a lost race is possible; the
// spawner retries on an early exit.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startProc launches bin with its output captured in logPath.
func startProc(name, bin, logPath string, args ...string) (*proc, error) {
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, logPath: logPath, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status is in the log tail; done is the signal
		close(p.done)
	}()
	return p, nil
}

// stop kills the process and waits until it has been reaped.
func (p *proc) stop() {
	_ = p.cmd.Process.Kill() // already exited is fine
	<-p.done
}

// logTail returns the last few lines of the process's captured output.
func (p *proc) logTail() string {
	b, err := os.ReadFile(p.logPath)
	if err != nil {
		return err.Error()
	}
	lines := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
	if len(lines) > 8 {
		lines = lines[len(lines)-8:]
	}
	return strings.Join(lines, "\n")
}

// exited reports an early exit as an error carrying the log tail.
func (p *proc) exited() error {
	select {
	case <-p.done:
		return fmt.Errorf("%s exited early; log tail:\n%s", p.name, p.logTail())
	default:
		return nil
	}
}

// spawnServer starts an HTTP-serving child on a free loopback port and
// waits until its /params answers. args receives the chosen address.
func spawnServer(ctx context.Context, name, bin, outDir string, args func(addr string) []string) (*proc, error) {
	var last error
	for attempt := 0; attempt < 3; attempt++ {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		p, err := startProc(name, bin, filepath.Join(outDir, name+".log"), args(addr)...)
		if err != nil {
			return nil, err
		}
		p.url = "http://" + addr
		if last = p.waitReady(ctx); last == nil {
			p.bootMS = float64(time.Since(start).Microseconds()) / 1e3
			return p, nil
		}
		p.stop()
		if ctx.Err() != nil || !strings.Contains(last.Error(), "address already in use") {
			break
		}
	}
	return nil, last
}

// waitReady polls GET /params until it answers 200, the child exits or
// ten seconds pass.
func (p *proc) waitReady(ctx context.Context) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := p.exited(); err != nil {
			return err
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		resp, err := http.Get(p.url + "/params")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // drained so the connection is reusable
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after 10s (last: %v); log tail:\n%s", p.name, err, p.logTail())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// clockTick is USER_HZ: /proc reports CPU time in 10 ms ticks on every
// Linux configuration Go supports.
const clockTick = 100

// cpuUS returns the process's user+system CPU time in microseconds,
// read from /proc/<pid>/stat (fields 14 and 15, counted after the
// parenthesised command name, which may itself contain spaces).
func (p *proc) cpuUS() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(b)
}

func parseStatCPU(stat []byte) (float64, error) {
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc stat line")
	}
	f := strings.Fields(string(stat[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unparseable CPU fields in /proc stat")
	}
	return (utime + stime) * 1e6 / clockTick, nil
}

// selfCPUUS is the benchmark process's own user+system CPU time.
func selfCPUUS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e6 + float64(t.Usec) }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads VmHWM, the peak resident set, of pid ("self" for the
// benchmark process) in megabytes.
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM of %s: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// promSample is one scraped /metrics exposition: per family (metric
// name), the sum of its samples over their label sets.
type promSample map[string]float64

// scrape reads a process's Prometheus text exposition.
func scrape(ctx context.Context, base string) (promSample, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: %s", base, resp.Status)
	}
	return parseProm(resp.Body)
}

func parseProm(r io.Reader) (promSample, error) {
	ps := promSample{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return ps, fmt.Errorf("malformed metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return ps, fmt.Errorf("metrics line %q: %w", line, err)
		}
		family, _, _ := strings.Cut(line[:sp], "{")
		ps[family] += v
	}
	return ps, sc.Err()
}

// delta returns after-before for one family.
func delta(before, after promSample, family string) float64 {
	return after[family] - before[family]
}
