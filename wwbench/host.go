package main

import (
	"bufio"
	"encoding/json"
	"hash/fnv"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
)

// host is the metadata printed with every result, so that numbers from
// different hosts or different code read as incomparable.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	// Commit is the VCS revision stamped into the binary, "unknown" when
	// built outside a repository; Source is an FNV-1a digest of go.mod
	// and the non-test Go files under internal/, which names the code
	// either way.
	Commit string `json:"commit"`
	Source string `json:"source"`
}

func hostInfo() (string, error) {
	h := host{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	src, err := sourceDigest(".")
	if err != nil {
		return "", err
	}
	h.Source = src
	out, err := json.Marshal(h)
	return string(out), err
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceDigest hashes go.mod and internal/**/*.go (tests excluded) under
// root, in walk order, path and content.
func sourceDigest(root string) (string, error) {
	h := fnv.New64a()
	add := func(path string) error {
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		h.Write([]byte(filepath.ToSlash(path)))
		h.Write(b)
		return nil
	}
	if err := add(filepath.Join(root, "go.mod")); err != nil {
		return "", err
	}
	err := filepath.WalkDir(filepath.Join(root, "internal"), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		return add(path)
	})
	if err != nil {
		return "", err
	}
	return hex(h.Sum64()), nil
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}
