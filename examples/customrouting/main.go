// Customrouting: write your own eBPF classifier. This one implements a
// policy the paper's framework makes trivial but fixed stacks cannot
// express: a per-VM *read-only window* — reads pass to the fast path with
// LBA translation, writes to the first half of the partition are allowed,
// and writes to the protected second half are rejected with AccessDenied.
// The policy map can be updated live, without touching the VM.
package main

import (
	"bytes"
	"fmt"
	"log"

	"nvmetro"
	"nvmetro/internal/ebpf"
	"nvmetro/internal/vm"
)

// The classifier source. Context layout: hook@0, error@4, cmd@32
// (opcode at 32, SLBA at 72, CDW12 at 80). Map cfg[0] = {start u64,
// blocks u64}; map policy[0] = {writableBlocks u64}.
const src = `
; read-anywhere / write-below-watermark policy
	mov   r9, r1
	mov   r2, 0
	stxw  [r10-4], r2
	ldmap r1, cfg
	mov   r2, r10
	add   r2, -4
	call  map_lookup_elem
	jeq   r0, 0, internal
	ldxdw r6, [r0+0]        ; partition start
	ldxdw r7, [r0+8]        ; partition blocks
	mov   r2, 0
	stxw  [r10-4], r2
	ldmap r1, policy
	mov   r2, r10
	add   r2, -4
	call  map_lookup_elem
	jeq   r0, 0, internal
	ldxdw r8, [r0+0]        ; writable watermark (blocks)
	ldxb  r3, [r9+32]       ; opcode
	jeq   r3, 0, passthru   ; flush
	ldxdw r4, [r9+72]       ; slba
	ldxw  r5, [r9+80]
	and   r5, 0xffff
	add   r5, 1
	add   r5, r4            ; end lba
	jgt   r5, r7, oob
	jne   r3, 1, translate  ; only writes face the watermark
	jgt   r5, r8, denied    ; write beyond the writable window
translate:
	add   r4, r6
	stxdw [r9+72], r4       ; direct mediation: rewrite LBA
passthru:
	mov   r0, 0x410000      ; SEND_HQ | WILL_COMPLETE_HQ
	exit
denied:
	mov   r0, 0x2000186     ; COMPLETE | AccessDenied (sct=1, sc=0x86)
	exit
oob:
	mov   r0, 0x2000080     ; COMPLETE | LBAOutOfRange
	exit
internal:
	mov   r0, 0x2000006
	exit
`

func main() {
	sys := nvmetro.NewSystem(nvmetro.Defaults())
	defer sys.Close()

	guest := sys.NewVM(1, 32<<20)
	part := sys.CarveDisk(2)[1] // give the VM the second half of the disk

	// Build maps: the standard partition config plus our policy map.
	cfgMap := nvmetro.NewConfigMap(part)
	policy := ebpf.NewArrayMap(8, 1)
	policy.SetU64(0, 0, part.Blocks/2) // first half writable

	prog, err := nvmetro.AssembleClassifier(src, "read-only-window",
		map[string]ebpf.Map{"cfg": cfgMap, "policy": policy})
	if err != nil {
		log.Fatalf("assemble: %v", err)
	}
	if err := nvmetro.VerifyClassifier(prog); err != nil {
		log.Fatalf("verifier rejected our classifier: %v", err)
	}
	fmt.Printf("custom classifier assembled (%d insns) and verified\n", len(prog.Insns))

	// Attach NVMetro and install the custom classifier on the controller.
	disk := sys.Attach(sys.NewNVMetro(), guest, part)
	if err := disk.Ctrl.LoadClassifier(prog); err != nil {
		log.Fatal(err)
	}

	watermark := part.Blocks / 2
	ok := sys.Run(10*nvmetro.Second, func(p *nvmetro.Proc) {
		buf := bytes.Repeat([]byte{1}, 512)
		base, pages, _ := guest.Mem.AllocBuffer(512)
		guest.Mem.WriteAt(buf, base)
		try := func(op vm.Op, lba uint64) string {
			r := &nvmetro.Req{Op: op, LBA: lba, Blocks: 1, Buf: base, BufPages: pages}
			return vm.SubmitAndWait(p, disk.Disk, guest.VCPU(0), r).String()
		}
		fmt.Printf("write LBA 100        (writable half):  %s\n", try(vm.OpWrite, 100))
		fmt.Printf("write LBA %d (protected half): %s\n", watermark+100, try(vm.OpWrite, watermark+100))
		fmt.Printf("read  LBA %d (protected half): %s\n", watermark+100, try(vm.OpRead, watermark+100))

		// Live policy update: widen the writable window — no VM restart.
		policy.SetU64(0, 0, part.Blocks)
		fmt.Println("policy map updated live: whole partition now writable")
		fmt.Printf("write LBA %d (was protected):  %s\n", watermark+100, try(vm.OpWrite, watermark+100))
	})
	if !ok {
		log.Fatal("did not finish")
	}
}
