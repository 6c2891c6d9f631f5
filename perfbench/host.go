package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// hostLine records the machine a result was measured on.
func hostLine(spillDir string) string {
	return fmt.Sprintf("host: nproc=%d gomaxprocs=%d cpu=%q go=%s kernel=%s spill_fs=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), kernel(), fsType(spillDir))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func kernel() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// fsType names the filesystem holding dir (or its nearest existing
// ancestor).
func fsType(dir string) string {
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlay",
		0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs",
	}
	p, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	for {
		var st syscall.Statfs_t
		if err := syscall.Statfs(p, &st); err == nil {
			if n, ok := names[int64(st.Type)]; ok {
				return n
			}
			return fmt.Sprintf("0x%x", st.Type)
		}
		parent := filepath.Dir(p)
		if parent == p {
			return "unknown"
		}
		p = parent
	}
}
