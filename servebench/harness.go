package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The ivmfd process harness: the benchmark runs the real server binary
// as its own process on a free loopback port with a temp -data-dir,
// kills it with SIGKILL to simulate a crash, restarts it on the same
// directory, and reads its memory high-water mark and CPU time from
// /proc.

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat;
// it is 100 on every mainstream Linux architecture.
const clockTicks = 100

// server is one running ivmfd process.
type server struct {
	cmd      *exec.Cmd
	base     string    // http://127.0.0.1:<port>
	launched time.Time // when the process was started
	exited   chan struct{}
}

// freePort asks the kernel for an unused loopback TCP port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startServer launches bin on a free loopback port with the given data
// directory, appending the process's output to logPath.
func startServer(bin, dataDir, logPath string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("harness: free port: %w", err)
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, "-addr", addr, "-data-dir", dataDir)
	cmd.Stdout, cmd.Stderr = logf, logf
	// If the benchmark itself is killed, the kernel kills the server too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s := &server{cmd: cmd, base: "http://" + addr, exited: make(chan struct{})}
	s.launched = time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("harness: start %s: %w", bin, err)
	}
	go func() {
		_ = cmd.Wait() // a SIGKILLed server exits non-zero by design
		logf.Close()
		close(s.exited)
	}()
	return s, nil
}

// waitReady polls /readyz until it answers 200, the process exits, or
// the timeout passes.
func (s *server) waitReady(timeout time.Duration) error {
	c := newClient(s.base)
	defer closeClient(c)
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	for {
		if c.Ready(ctx) == nil {
			return nil
		}
		select {
		case <-s.exited:
			return fmt.Errorf("harness: ivmfd exited before ready")
		case <-ctx.Done():
			return fmt.Errorf("harness: ivmfd not ready after %v", timeout)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// kill sends SIGKILL and waits until the process has exited.
func (s *server) kill() {
	_ = s.cmd.Process.Signal(syscall.SIGKILL) // fails only if it already exited
	<-s.exited
}

// procStats reads the process's peak resident set (VmHWM) and its
// consumed CPU time (utime + stime).
func (s *server) procStats() (hwmKB int64, cpu time.Duration, err error) {
	pid := s.cmd.Process.Pid
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				return 0, 0, fmt.Errorf("harness: bad VmHWM line %q", line)
			}
			if hwmKB, err = strconv.ParseInt(f[0], 10, 64); err != nil {
				return 0, 0, err
			}
		}
	}
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	cpu, err = parseStatCPU(string(stat))
	return hwmKB, cpu, err
}

// parseStatCPU extracts utime + stime from a /proc/<pid>/stat line. The
// command name (field 2) may contain spaces, so fields are counted from
// its closing parenthesis.
func parseStatCPU(stat string) (time.Duration, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("harness: malformed stat %q", stat)
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("harness: short stat %q", stat)
	}
	var ticks int64
	for _, s := range f[11:13] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("harness: bad stat field %q: %w", s, err)
		}
		ticks += v
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}
