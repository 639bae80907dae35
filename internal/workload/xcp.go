package workload

import (
	"fmt"

	"xok/internal/apps"
	"xok/internal/cap"
	"xok/internal/kernel"
	"xok/internal/machine"
	"xok/internal/sim"
	"xok/internal/unix"
)

// The Section 7.2 copy set: xcpFiles files of xcpFileSize bytes each,
// written a block per file in turn so every file is fragmented.
const (
	xcpFiles    = 8
	xcpFileSize = 400_000
)

// XCPCopy runs one leg of the Section 7.2 comparison on m, a freshly
// booted Xok/ExOS machine: it stages the fragmented copy set, evicts
// every cached block when cold, then copies the set with cp (useXCP
// false) or with XCP. The result is the copy's elapsed virtual time,
// from spawning the copying process to its exit.
func XCPCopy(m machine.Machine, cold, useXCP bool) (sim.Time, error) {
	if p := m.Personality(); p != machine.XokExOS && p != machine.XokUnprotected {
		return 0, fmt.Errorf("xcp: %s has no XN to copy through", m.Name())
	}
	pairs := make([][2]string, xcpFiles)
	for i := range pairs {
		pairs[i] = [2]string{fmt.Sprintf("/s%d", i), fmt.Sprintf("/d%d", i)}
	}
	var err error
	exec(m, "stage", func(p unix.Proc) error {
		fds := make([]unix.FD, len(pairs))
		for i := range fds {
			fd, err := p.Create(pairs[i][0], 6)
			if err != nil {
				return err
			}
			fds[i] = fd
		}
		chunk := make([]byte, sim.DiskBlockSize)
		for off := 0; off < xcpFileSize; off += len(chunk) {
			for _, fd := range fds {
				if _, err := p.Write(fd, chunk); err != nil {
					return err
				}
			}
		}
		for _, fd := range fds {
			p.Close(fd)
		}
		return p.Sync()
	}, &err)
	if err != nil {
		return 0, err
	}
	if cold {
		m.K.Spawn("evict", func(e *kernel.Env) {
			e.Creds = cap.UnixCreds(0)
			for {
				if _, ok := m.X.RecycleLRU(e); !ok {
					return
				}
			}
		})
		m.Run()
	}

	start := m.Now()
	var end sim.Time
	if useXCP {
		m.K.Spawn("xcp", func(e *kernel.Env) {
			e.Creds = cap.UnixCreds(0)
			err = apps.XCP(e, m.FS, pairs)
			end = m.Now()
		})
	} else {
		m.Spawn("cp", 0, func(p unix.Proc) {
			for _, pr := range pairs {
				if err = apps.Cp(p, pr[0], pr[1]); err != nil {
					return
				}
			}
			end = p.Now()
		})
	}
	m.Run()
	if err != nil {
		return 0, fmt.Errorf("%s: copy: %w", m.Name(), err)
	}
	return end - start, nil
}
