package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// serverProc is a running server process: the benchmark's own child, or (in
// parity mode) the shipped stacksync-server binary.
type serverProc struct {
	cmd     *exec.Cmd
	stdin   io.WriteCloser // nil for the shipped binary
	stdout  *bufio.Reader
	mqAddr  string
	httpURL string
	// recoverNS is the metadata WAL replay time the child reported. Zero for
	// the shipped binary.
	recoverNS int64
	// spawnTook is exec → ready line, measured by the parent.
	spawnTook time.Duration
}

// startServer re-executes this binary as the server child on dataDir.
func startServer(dataDir string, workspaces int, traced bool) (*serverProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, childFlag, dataDir,
		"-workspaces", strconv.Itoa(workspaces), "-traced="+strconv.FormatBool(traced))
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	began := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start server child: %w", err)
	}
	s := &serverProc{cmd: cmd, stdin: stdin, stdout: bufio.NewReader(out)}
	line, err := s.stdout.ReadString('\n')
	if err != nil {
		s.kill()
		return nil, fmt.Errorf("server child exited before it was ready: %w", err)
	}
	s.spawnTook = time.Since(began)
	for _, f := range strings.Fields(line) {
		k, v, _ := strings.Cut(f, "=")
		switch k {
		case "mq":
			s.mqAddr = v
		case "http":
			s.httpURL = v
		case "recover_ns":
			s.recoverNS, _ = strconv.ParseInt(v, 10, 64)
		}
	}
	if s.mqAddr == "" || s.httpURL == "" {
		s.kill()
		return nil, fmt.Errorf("server child: unexpected first line %q", line)
	}
	return s, nil
}

// startShipped runs the stacksync-server binary at bin with one workspace
// and two pinned instances, on two free loopback ports.
func startShipped(bin, dataDir string) (*serverProc, error) {
	mqAddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	httpAddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-listen", mqAddr, "-storage-listen", httpAddr, "-data", dataDir,
		"-workspace", workspaceID(0), "-users", benchUser, "-min-instances", "2", "-max-instances", "2")
	cmd.Stderr = io.Discard // its log lines are not part of the result
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	began := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &serverProc{cmd: cmd, stdout: bufio.NewReader(out), mqAddr: mqAddr, httpURL: "http://" + httpAddr}
	line, err := s.stdout.ReadString('\n')
	if err != nil || !strings.HasPrefix(line, "stacksync-server up") {
		s.kill()
		return nil, fmt.Errorf("%s did not come up (first line %q): %v", bin, line, err)
	}
	s.spawnTook = time.Since(began)
	// The Supervisor brings the pool to its minimum on its first check, one
	// second in; give it that long so both instances serve the run.
	time.Sleep(1500 * time.Millisecond)
	return s, nil
}

func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

func (s *serverProc) pid() int { return s.cmd.Process.Pid }

// kill is kill -9: nothing the process buffered in user space survives.
func (s *serverProc) kill() {
	_ = s.cmd.Process.Kill()
	_ = s.cmd.Wait()
}

// stop ends the process and waits for it: the child exits when its stdin
// closes; the shipped binary has no such channel and is killed.
func (s *serverProc) stop() {
	if s.stdin == nil {
		s.kill()
		return
	}
	_ = s.stdin.Close()
	done := make(chan struct{})
	go func() { _ = s.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		_ = s.cmd.Process.Kill()
		<-done
	}
}

// dumpSpans asks the child to write the spans it recorded to path.
func (s *serverProc) dumpSpans(path string) ([]span, error) {
	if _, err := fmt.Fprintf(s.stdin, "dump %s\n", path); err != nil {
		return nil, err
	}
	line, err := s.stdout.ReadString('\n')
	if err != nil {
		return nil, err
	}
	if strings.TrimSpace(line) != "ok" {
		return nil, fmt.Errorf("server child: dump: %s", strings.TrimSpace(line))
	}
	return readSpans(path)
}

// clockTick is USER_HZ, the unit of the CPU times in /proc/<pid>/stat. It is
// 100 on every Linux platform Go supports.
const clockTick = 100

// cpuSeconds is the user+system CPU time the process has used so far.
func (s *serverProc) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.pid()))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields resume after ')'.
	i := bytes.LastIndexByte(data, ')')
	fields := strings.Fields(string(data[i+1:]))
	if i < 0 || len(fields) < 13 {
		return 0, fmt.Errorf("unexpected /proc stat line %q", data)
	}
	utime, err1 := strconv.ParseFloat(fields[11], 64) // field 14
	stime, err2 := strconv.ParseFloat(fields[12], 64) // field 15
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected /proc stat line %q", data)
	}
	return (utime + stime) / clockTick, nil
}

// ioCounters reads /proc/<pid>/io: the read and write system calls the
// process has made (sockets included) and the bytes it has caused to be
// written to the storage layer.
func (s *serverProc) ioCounters() (calls, diskBytes uint64, err error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/io", s.pid()))
	if err != nil {
		return 0, 0, err
	}
	found := 0
	for _, line := range strings.Split(string(data), "\n") {
		k, v, _ := strings.Cut(line, ": ")
		n, _ := strconv.ParseUint(v, 10, 64)
		switch k {
		case "syscr", "syscw":
			calls += n
			found++
		case "write_bytes":
			diskBytes = n
			found++
		}
	}
	if found != 3 {
		return 0, 0, fmt.Errorf("unexpected /proc/%d/io: %q", s.pid(), data)
	}
	return calls, diskBytes, nil
}

// peakRSSMB is the process's resident-set high-water mark.
func (s *serverProc) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.pid()))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("unexpected VmHWM line %q", line)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.pid())
}
