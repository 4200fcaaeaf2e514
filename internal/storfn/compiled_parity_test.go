package storfn_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"nvmetro/internal/core"
	"nvmetro/internal/device"
	"nvmetro/internal/ebpf"
	"nvmetro/internal/nvme"
	"nvmetro/internal/qos"
	"nvmetro/internal/storfn"
)

// shippedClassifiers builds every shipped classifier with fresh map
// instances (so two builds mutate independent state).
func shippedClassifiers() map[string]func() *ebpf.Program {
	part := device.Partition{Start: 4096, Blocks: 8192}
	return map[string]func() *ebpf.Program{
		"partition": func() *ebpf.Program {
			p, _ := storfn.PartitionClassifier(part)
			return p
		},
		"encryptor": func() *ebpf.Program {
			p, _ := storfn.EncryptorClassifier(part)
			return p
		},
		"replicator": func() *ebpf.Program {
			p, _ := storfn.ReplicatorClassifier(part)
			return p
		},
		"qos": func() *ebpf.Program {
			p, _, _ := storfn.QoSClassifier(part)
			return p
		},
		"qosclass": func() *ebpf.Program {
			p, _, class := storfn.QoSClassClassifier(part)
			core.SetOpcodeClass(class, nvme.OpWrite, qos.ClassBulk)
			return p
		},
		"cache": func() *ebpf.Program {
			p, _ := storfn.CacheClassifier(part, core.NewHotHints(3, 1<<10), 2)
			return p
		},
	}
}

// genCtx synthesizes a classifier context: half structured (plausible NVMe
// I/O commands, mostly in-partition), half random bytes, so both the happy
// paths and the error/bounds paths run on both tiers.
func genCtx(rng *rand.Rand) []byte {
	ctx := make([]byte, core.CtxSize)
	if rng.Intn(2) == 0 {
		rng.Read(ctx)
	}
	binary.LittleEndian.PutUint32(ctx[core.CtxOffHook:], uint32(rng.Intn(4)))
	cmd := ctx[core.CtxOffCmd:]
	cmd[0] = byte(rng.Intn(4))                                      // opcode: admin/write/read/..
	binary.LittleEndian.PutUint64(cmd[40:], uint64(rng.Intn(9000))) // SLBA, sometimes out of range
	binary.LittleEndian.PutUint32(cmd[48:], uint32(rng.Intn(32)))   // NLB
	return ctx
}

// TestShippedClassifierParity runs every shipped classifier on both
// execution tiers (independent map state each) across a shared command
// sequence and requires identical action words, context writebacks and
// QoS class tags — the contract that lets the router run them compiled,
// with the interpreter as the oracle.
func TestShippedClassifierParity(t *testing.T) {
	for name, build := range shippedClassifiers() {
		t.Run(name, func(t *testing.T) {
			progI := build()
			progC := build()
			cp, err := ebpf.Compile(progC, core.NewVerifier())
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			vmI, vmC := ebpf.NewVM(nil), ebpf.NewVM(nil)
			rng := rand.New(rand.NewSource(42))
			for i := 0; i < 500; i++ {
				ctxI := genCtx(rng)
				ctxC := append([]byte(nil), ctxI...)
				retI, errI := vmI.Run(progI, ctxI)
				retC, errC := vmC.RunCompiled(cp, ctxC)
				if (errI == nil) != (errC == nil) {
					t.Fatalf("cmd %d: error mismatch: %v vs %v", i, errI, errC)
				}
				if errI == nil && retI != retC {
					t.Fatalf("cmd %d: action %#x (interp) != %#x (compiled)", i, retI, retC)
				}
				if !bytes.Equal(ctxI, ctxC) {
					t.Fatalf("cmd %d: ctx writeback diverged", i)
				}
				if errI == nil && vmI.QoSClass != vmC.QoSClass {
					t.Fatalf("cmd %d: class %d (interp) != %d (compiled)", i, vmI.QoSClass, vmC.QoSClass)
				}
			}
		})
	}
}

// BenchmarkClassifierSuite measures every shipped classifier on both tiers
// over a representative in-partition read command.
func BenchmarkClassifierSuite(b *testing.B) {
	ctx := make([]byte, core.CtxSize)
	cmd := ctx[core.CtxOffCmd:]
	cmd[0] = 2 // read
	binary.LittleEndian.PutUint64(cmd[40:], 128)
	binary.LittleEndian.PutUint32(cmd[48:], 7)

	for name, build := range shippedClassifiers() {
		p := build()
		cp, err := ebpf.Compile(build(), core.NewVerifier())
		if err != nil {
			b.Fatalf("%s: compile: %v", name, err)
		}
		b.Run(fmt.Sprintf("%s/interpreter", name), func(b *testing.B) {
			vm := ebpf.NewVM(nil)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := vm.Run(p, ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("%s/compiled", name), func(b *testing.B) {
			vm := ebpf.NewVM(nil)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := vm.RunCompiled(cp, ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
