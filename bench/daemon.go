package main

import (
	"bytes"
	"context"
	"fmt"
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

// buildDaemon compiles cmd/distboundd into dir and returns the binary's
// path. The output path is stable, so with a warm build cache a second call
// is a no-op; build time is never part of setup_s.
func buildDaemon(ctx context.Context, moduleDir, dir string) (string, error) {
	bin, err := filepath.Abs(filepath.Join(dir, "distboundd"))
	if err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "distbound/cmd/distboundd")
	cmd.Dir = moduleDir
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building distboundd: %w\n%s", err, out)
	}
	return bin, nil
}

// daemon is one running distboundd on a loopback port.
type daemon struct {
	cmd     *exec.Cmd
	url     string
	started time.Time
	log     bytes.Buffer
	done    chan struct{} // closed once the process has been waited for
	waitErr error         // valid after done
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon launches bin with args on a free loopback port and returns
// once /healthz answers 200, polling every 5 ms.
func startDaemon(ctx context.Context, bin string, args ...string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	d := &daemon{url: "http://" + addr, done: make(chan struct{})}
	d.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	d.cmd.Stdout, d.cmd.Stderr = &d.log, &d.log
	// The daemon must not outlive the harness on any exit path, a crash of
	// the harness included.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d.started = time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting distboundd: %w", err)
	}
	go func() { d.waitErr = d.cmd.Wait(); close(d.done) }()

	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	deadline := time.After(2 * time.Minute)
	for {
		resp, err := http.Get(d.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.done:
			return nil, fmt.Errorf("distboundd exited before becoming healthy: %v\n%s", d.waitErr, d.log.String())
		case <-deadline:
			d.stop()
			return nil, fmt.Errorf("distboundd not healthy after 2m\n%s", d.log.String())
		case <-ctx.Done():
			d.stop()
			return nil, ctx.Err()
		case <-tick.C:
		}
	}
}

// stop drains the daemon with SIGTERM and waits for it to exit, killing it
// if the drain outlasts 15 s. Safe to call more than once.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // already exited is fine
	select {
	case <-d.done:
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill() //nolint:errcheck // already exited is fine
		<-d.done
	}
}

// rssPeakMB is the daemon's VmHWM in MB.
func (d *daemon) rssPeakMB() (float64, error) { return procStatusMB(d.cmd.Process.Pid, "VmHWM") }

// procStatusMB reads one kB field (VmHWM, VmRSS) of a live process's
// /proc status, in MB.
func procStatusMB(pid int, field string) (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, pid)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n, err
}
