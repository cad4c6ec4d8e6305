// Stack switch for the rank scheduler's fibers (src/simnet/vtime.cpp) on
// x86-64 System V. Other targets assemble this file to nothing and use the
// ucontext bodies in vtime.cpp instead.
//
// A suspended context is its stack pointer. It points at this frame, the
// lowest address first:
//
//     0  MXCSR (4 bytes), x87 control word (2 bytes), 2 bytes unused
//     8  r15
//    16  r14
//    24  r13
//    32  r12
//    40  rbx
//    48  rbp
//    56  return address
//
// These are all the registers and control bits the ABI makes callee-saved;
// everything else is caller-saved, so the C++ caller already assumes the
// call clobbers it. Unlike glibc's swapcontext, no signal mask is saved or
// restored, so a switch makes no system call.
//
// This file carries no .note.gnu.property section. The linker therefore
// drops the SHSTK (CET shadow stack) property from every binary that links
// it, and the kernel never enables a shadow stack under these switches,
// whose returns would not match it.

#if defined(__x86_64__) && defined(__ELF__)

        .text

// void conflux_fiber_switch(void** save_sp, void* load_sp)
//
// Saves the running context on its own stack, stores its stack pointer to
// *save_sp, and resumes the context whose stack pointer is load_sp. Returns
// when some later switch loads the saved pointer again. load_sp is read
// before *save_sp is written, so both may name the same variable.
        .globl  conflux_fiber_switch
        .type   conflux_fiber_switch, @function
        .p2align 4
conflux_fiber_switch:
        .cfi_startproc
        pushq   %rbp
        .cfi_adjust_cfa_offset 8
        .cfi_rel_offset %rbp, 0
        pushq   %rbx
        .cfi_adjust_cfa_offset 8
        .cfi_rel_offset %rbx, 0
        pushq   %r12
        .cfi_adjust_cfa_offset 8
        .cfi_rel_offset %r12, 0
        pushq   %r13
        .cfi_adjust_cfa_offset 8
        .cfi_rel_offset %r13, 0
        pushq   %r14
        .cfi_adjust_cfa_offset 8
        .cfi_rel_offset %r14, 0
        pushq   %r15
        .cfi_adjust_cfa_offset 8
        .cfi_rel_offset %r15, 0
        subq    $8, %rsp
        .cfi_adjust_cfa_offset 8
        stmxcsr (%rsp)
        fnstcw  4(%rsp)

        movq    %rsp, (%rdi)
        movq    %rsi, %rsp
        // The loaded frame has the layout of the saved one, so the unwind
        // rules above describe it too.

        ldmxcsr (%rsp)
        fldcw   4(%rsp)
        addq    $8, %rsp
        .cfi_adjust_cfa_offset -8
        popq    %r15
        .cfi_adjust_cfa_offset -8
        .cfi_restore %r15
        popq    %r14
        .cfi_adjust_cfa_offset -8
        .cfi_restore %r14
        popq    %r13
        .cfi_adjust_cfa_offset -8
        .cfi_restore %r13
        popq    %r12
        .cfi_adjust_cfa_offset -8
        .cfi_restore %r12
        popq    %rbx
        .cfi_adjust_cfa_offset -8
        .cfi_restore %rbx
        popq    %rbp
        .cfi_adjust_cfa_offset -8
        .cfi_restore %rbp
        ret
        .cfi_endproc
        .size   conflux_fiber_switch, .-conflux_fiber_switch

// The first instruction a fresh fiber runs. Its first frame (laid out by
// VtRuntime::run) returns here with r12 = the entry's argument, r13 = the
// entry function and rsp 16-byte aligned, as the call below requires. The
// entry never returns: a finished fiber switches away for good.
        .globl  conflux_fiber_start
        .type   conflux_fiber_start, @function
        .p2align 4
conflux_fiber_start:
        .cfi_startproc
        // Outermost frame: unwinders and debuggers stop here.
        .cfi_undefined %rip
        movq    %r12, %rdi
        call    *%r13
        ud2
        .cfi_endproc
        .size   conflux_fiber_start, .-conflux_fiber_start

#endif

#if defined(__ELF__)
        // The stack stays non-executable.
        .section .note.GNU-stack,"",@progbits
#endif
