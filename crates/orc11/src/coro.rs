//! Stackful coroutines: the stack switch under [`crate::exec`]'s model
//! threads.
//!
//! A [`Coro`] owns one guarded [`Stack`] and runs one task at a time on
//! it. [`Coro::resume`] switches the calling OS thread onto that stack
//! until the task calls [`suspend`] or returns; nothing else runs in
//! between, so a handoff costs two register-file swaps instead of a
//! futex round-trip. Coroutines never migrate between OS threads
//! (`Coro` is `!Send`), and the whole module is `unsafe`-internal with a
//! safe surface: misuse that would be unsound (resuming a finished
//! coroutine, restarting a suspended one, suspending outside any
//! coroutine) is an `assert!`.
//!
//! # Stack layout
//!
//! ```text
//!   base                base + GUARD_BYTES                 base + STACK_BYTES
//!    | PROT_NONE guard | canary word (debug) ...  <- sp ... | 16 spare bytes |
//! ```
//!
//! The stack grows down from the top; running off the bottom faults on
//! the guard and the process dies by `SIGSEGV` instead of scribbling
//! over the heap. The block is one heap allocation (2 MiB including the
//! guard — std's default thread stack) reused by every task its
//! coroutine hosts and, once that coroutine is dropped, by the next one
//! created anywhere in the process ([`FREE`]). Only touched pages of a
//! block are resident, which is why blocks are never handed back:
//! exploration workers and their arenas die with each exploration, and
//! a freed 2 MiB block returns carved out of recycled, dirty heap.

use std::alloc::{self, Layout};
use std::any::Any;
use std::arch::naked_asm;
use std::cell::Cell;
use std::ffi::{c_int, c_void};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::ptr::{self, NonNull};

use crate::sync::Mutex;

#[cfg(not(all(unix, any(target_arch = "x86_64", target_arch = "aarch64"))))]
compile_error!(
    "orc11::coro::switch is written for x86_64 (System V) and aarch64 (AAPCS64) on unix; \
     port that function, `trampoline` and the two `FRAME_*` constants to build orc11 here"
);

/// Bytes per coroutine stack, guard included.
const STACK_BYTES: usize = 2 << 20;
/// Bytes of `PROT_NONE` guard at the low end; also the block's
/// alignment, so the guard is page-aligned for every page size up to
/// 64 KiB.
const GUARD_BYTES: usize = 64 << 10;
#[cfg(debug_assertions)]
const CANARY: usize = 0x5ca1_ab1e_0c0a_57ac_u64 as usize;

const PROT_NONE: c_int = 0;

extern "C" {
    fn mprotect(addr: *mut c_void, len: usize, prot: c_int) -> c_int;
}

struct Stack {
    base: NonNull<u8>,
}

/// A guarded block no [`Stack`] holds.
struct FreeBlock(NonNull<u8>);

// SAFETY: a block on the list is owned by the list alone — the `Stack`
// that pushed it is gone and nothing runs on it — so the thread that
// pops it is its only user.
unsafe impl Send for FreeBlock {}

/// Blocks of dropped stacks, guard still `PROT_NONE`. Never shrinks: it
/// is bounded by the largest number of coroutines ever live at once.
static FREE: Mutex<Vec<FreeBlock>> = Mutex::new(Vec::new());

/// Blocks ever taken from the allocator.
#[cfg(test)]
pub(crate) static ALLOCATED: std::sync::atomic::AtomicUsize =
    std::sync::atomic::AtomicUsize::new(0);

impl Stack {
    const LAYOUT: Layout = match Layout::from_size_align(STACK_BYTES, GUARD_BYTES) {
        Ok(l) => l,
        Err(_) => panic!("stack layout"),
    };

    fn new() -> Stack {
        let pooled = FREE.lock().pop();
        let base = pooled.map_or_else(Self::alloc_guarded, |b| b.0);
        let stack = Stack { base };
        // SAFETY: see `canary`; nothing else has the block yet.
        #[cfg(debug_assertions)]
        unsafe {
            stack.canary().write(CANARY);
        }
        stack
    }

    fn alloc_guarded() -> NonNull<u8> {
        #[cfg(test)]
        ALLOCATED.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        // SAFETY: LAYOUT has non-zero size.
        let Some(base) = NonNull::new(unsafe { alloc::alloc(Self::LAYOUT) }) else {
            alloc::handle_alloc_error(Self::LAYOUT)
        };
        // SAFETY: `[base, base + GUARD_BYTES)` lies inside the block just
        // allocated and is page-aligned (LAYOUT's alignment); revoking
        // access to memory nobody has been handed yet breaks no reference.
        let rc = unsafe { mprotect(base.as_ptr().cast(), GUARD_BYTES, PROT_NONE) };
        assert_eq!(rc, 0, "mprotect could not guard a coroutine stack");
        base
    }

    /// The lowest usable word: inside the block, just above the guard,
    /// word-aligned. Frames reach it last.
    #[cfg(debug_assertions)]
    fn canary(&self) -> *mut usize {
        // SAFETY: GUARD_BYTES is inside the block.
        unsafe { self.base.as_ptr().add(GUARD_BYTES).cast() }
    }

    /// The highest stack pointer a task starts from (16-byte aligned,
    /// with 16 spare bytes above it inside the block).
    fn top(&self) -> *mut usize {
        // SAFETY: STACK_BYTES - 16 is inside the block.
        unsafe { self.base.as_ptr().add(STACK_BYTES - 16).cast() }
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        FREE.lock().push(FreeBlock(self.base));
    }
}

/// Saves the callee-saved registers on the running stack, stores the
/// stack pointer to `*save`, adopts `to` and restores the registers saved
/// there; returns on the adopted stack. The MXCSR/x87 control words and
/// FPCR are not saved: Rust code never changes them.
///
/// # Safety
///
/// `to` must have been stored by an earlier `switch` on this OS thread
/// (or forged by [`Coro::start`]), its stack must still be allocated,
/// and no saved pointer may be adopted twice.
#[cfg(target_arch = "x86_64")]
#[unsafe(naked)]
unsafe extern "C" fn switch(save: *mut *mut usize, to: *mut usize) {
    naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
    )
}

/// Words in the frame `switch` pops, and the index of its return address.
#[cfg(target_arch = "x86_64")]
const FRAME_WORDS: usize = 7;
#[cfg(target_arch = "x86_64")]
const FRAME_RET: usize = 6;

/// Where a fresh coroutine's first `switch` returns to: the outermost
/// frame of its stack (return address undefined, frame pointer null, so
/// unwinders and backtraces stop here), which calls [`entry`].
#[cfg(target_arch = "x86_64")]
#[unsafe(naked)]
unsafe extern "C" fn trampoline() {
    naked_asm!(
        ".cfi_startproc",
        ".cfi_undefined rip",
        "xor ebp, ebp",
        "call {entry}",
        "ud2",
        ".cfi_endproc",
        entry = sym entry,
    )
}

/// See the x86_64 `switch`. AAPCS64 callee-saved state: x19–x28, the
/// frame pointer x29, the link register x30, and the low halves d8–d15.
#[cfg(target_arch = "aarch64")]
#[unsafe(naked)]
unsafe extern "C" fn switch(save: *mut *mut usize, to: *mut usize) {
    naked_asm!(
        "sub sp, sp, #160",
        "stp x19, x20, [sp, #0]",
        "stp x21, x22, [sp, #16]",
        "stp x23, x24, [sp, #32]",
        "stp x25, x26, [sp, #48]",
        "stp x27, x28, [sp, #64]",
        "stp x29, x30, [sp, #80]",
        "stp d8, d9, [sp, #96]",
        "stp d10, d11, [sp, #112]",
        "stp d12, d13, [sp, #128]",
        "stp d14, d15, [sp, #144]",
        "mov x9, sp",
        "str x9, [x0]",
        "mov sp, x1",
        "ldp x19, x20, [sp, #0]",
        "ldp x21, x22, [sp, #16]",
        "ldp x23, x24, [sp, #32]",
        "ldp x25, x26, [sp, #48]",
        "ldp x27, x28, [sp, #64]",
        "ldp x29, x30, [sp, #80]",
        "ldp d8, d9, [sp, #96]",
        "ldp d10, d11, [sp, #112]",
        "ldp d12, d13, [sp, #128]",
        "ldp d14, d15, [sp, #144]",
        "add sp, sp, #160",
        "ret",
    )
}

#[cfg(target_arch = "aarch64")]
const FRAME_WORDS: usize = 20;
/// The x30 slot: `switch` ends in `ret`, which jumps to x30.
#[cfg(target_arch = "aarch64")]
const FRAME_RET: usize = 11;

#[cfg(target_arch = "aarch64")]
#[unsafe(naked)]
unsafe extern "C" fn trampoline() {
    naked_asm!(
        ".cfi_startproc",
        ".cfi_undefined x30",
        "mov x29, xzr",
        "bl {entry}",
        "brk #1",
        ".cfi_endproc",
        entry = sym entry,
    )
}

thread_local! {
    /// The coroutine running on this OS thread, null on its own stack.
    static CURRENT: Cell<*mut Coro> = const { Cell::new(ptr::null_mut()) };
}

/// The body of every coroutine: runs the installed task, records how it
/// ended and switches out for the last time.
extern "C" fn entry() -> ! {
    let co = CURRENT.get();
    // SAFETY: only `trampoline` calls this, on the first switch of a
    // `resume`, which set CURRENT to the coroutine it holds exclusively
    // and touches it only through that pointer until the switch back;
    // `host_sp` is what that switch saved, its frame still waiting.
    unsafe {
        let task = (*co).task.take().expect("a started coroutine has a task");
        (*co).panic = catch_unwind(AssertUnwindSafe(task)).err();
        (*co).live = false;
        switch(&raw mut (*co).sp, (*co).host_sp);
    }
    // `resume` refuses a coroutine that is not live, so nothing adopts
    // the pointer saved above; a panic in an `extern "C"` fn aborts.
    unreachable!("finished coroutine resumed")
}

/// Switches from the running coroutine back to whoever resumed it;
/// returns when it is resumed again.
///
/// # Panics
///
/// Panics when no coroutine is running on this OS thread.
pub(crate) fn suspend() {
    let co = CURRENT.get();
    assert!(!co.is_null(), "coro::suspend called outside a coroutine");
    // SAFETY: CURRENT is non-null only while the `resume` that set it is
    // switched out, holding `*co` exclusively and not touching it;
    // `host_sp` was saved by that switch and is adopted exactly once,
    // here. Breaks if a `Coro` could move or drop while it runs.
    unsafe { switch(&raw mut (*co).sp, (*co).host_sp) }
}

/// A pooled coroutine: a guarded stack plus the task currently on it.
pub(crate) struct Coro {
    stack: Stack,
    /// The task's stack pointer while it is switched out.
    sp: *mut usize,
    /// The resumer's stack pointer while the task runs.
    host_sp: *mut usize,
    task: Option<Box<dyn FnOnce()>>,
    panic: Option<Box<dyn Any + Send>>,
    /// A task has been started and has not returned yet.
    live: bool,
}

impl Coro {
    /// A coroutine with a fresh stack and no task.
    pub(crate) fn new() -> Coro {
        Coro {
            stack: Stack::new(),
            sp: ptr::null_mut(),
            host_sp: ptr::null_mut(),
            task: None,
            panic: None,
            live: false,
        }
    }

    /// Installs `task`; the first [`Coro::resume`] starts it from the top
    /// of the (reused) stack.
    ///
    /// # Panics
    ///
    /// Panics if the previous task is still suspended: its frames would
    /// be overwritten.
    pub(crate) fn start(&mut self, task: Box<dyn FnOnce()>) {
        assert!(!self.live, "coroutine restarted over a suspended task");
        // SAFETY: the frame lies in the top of the owned stack block, and
        // no task is live, so nothing else is stored there. It is what
        // `switch` pops: zeroed callee-saved registers, then a return
        // into `trampoline` with the stack pointer back at `top`.
        unsafe {
            let sp = self.stack.top().sub(FRAME_WORDS);
            ptr::write_bytes(sp, 0, FRAME_WORDS);
            sp.add(FRAME_RET).write(trampoline as *const () as usize);
            self.sp = sp;
        }
        self.task = Some(task);
        self.panic = None;
        self.live = true;
    }

    /// Runs the task until it calls [`suspend`] or ends.
    ///
    /// # Panics
    ///
    /// Panics if no task is live (never started, or already finished).
    pub(crate) fn resume(&mut self) {
        assert!(self.live, "resumed a coroutine with no live task");
        let this: *mut Coro = self;
        let outer = CURRENT.replace(this);
        // SAFETY: `live` says `sp` was forged by `start` or saved by the
        // task's last `suspend`, on the stack this coroutine still owns,
        // and has not been adopted since. `self` stays mutably borrowed
        // (so neither moved nor dropped) until the task switches back,
        // and is only reached through `this` in between.
        unsafe { switch(&raw mut (*this).host_sp, (*this).sp) };
        CURRENT.set(outer);
    }

    /// Whether the started task has returned (or none was started).
    pub(crate) fn is_done(&self) -> bool {
        !self.live
    }

    /// The payload of the panic that ended the last task, once.
    pub(crate) fn take_panic(&mut self) -> Option<Box<dyn Any + Send>> {
        self.panic.take()
    }

    /// Debug builds: asserts the word just above the guard is untouched,
    /// i.e. no task has come within a frame of the end of the stack (or
    /// jumped the guard with a frame larger than it).
    pub(crate) fn check_canary(&self) {
        // SAFETY: `Stack::new` initialised the word; no `&mut` to stack
        // memory exists while no task runs.
        #[cfg(debug_assertions)]
        assert_eq!(
            unsafe { self.stack.canary().read() },
            CANARY,
            "a model thread used its whole coroutine stack"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn task_and_host_alternate_and_locals_survive_the_switch() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut co = Coro::new();
        let task_log = log.clone();
        co.start(Box::new(move || {
            let local = [1.5f64, 2.5, 3.5];
            for (i, x) in local.iter().enumerate() {
                task_log.borrow_mut().push(format!("task {i} {x}"));
                suspend();
            }
        }));
        for i in 0..3 {
            assert!(!co.is_done());
            co.resume();
            log.borrow_mut().push(format!("host {i}"));
        }
        co.resume();
        assert!(co.is_done());
        assert!(co.take_panic().is_none());
        co.check_canary();
        assert_eq!(
            *log.borrow(),
            [
                "task 0 1.5",
                "host 0",
                "task 1 2.5",
                "host 1",
                "task 2 3.5",
                "host 2"
            ]
        );
    }

    #[test]
    fn panic_is_captured_and_the_stack_is_reused() {
        let mut co = Coro::new();
        co.start(Box::new(|| panic!("task failed")));
        co.resume();
        assert!(co.is_done());
        let p = co.take_panic().expect("panic payload kept");
        assert_eq!(p.downcast_ref::<&str>(), Some(&"task failed"));
        let ran = Rc::new(Cell::new(false));
        let flag = ran.clone();
        co.start(Box::new(move || flag.set(true)));
        co.resume();
        assert!(ran.get() && co.is_done() && co.take_panic().is_none());
    }

    #[test]
    fn a_coroutine_can_host_coroutines() {
        let mut outer = Coro::new();
        let hops = Rc::new(Cell::new(0));
        let seen = hops.clone();
        outer.start(Box::new(move || {
            let mut inner = Coro::new();
            let inner_seen = seen.clone();
            inner.start(Box::new(move || {
                inner_seen.set(inner_seen.get() + 1);
                suspend(); // to `outer`'s task, not to the test
                inner_seen.set(inner_seen.get() + 1);
            }));
            inner.resume();
            suspend(); // to the test, with `inner` suspended on this stack
            inner.resume();
            assert!(inner.is_done());
        }));
        outer.resume();
        assert_eq!((hops.get(), outer.is_done()), (1, false));
        outer.resume();
        assert_eq!((hops.get(), outer.is_done()), (2, true));
        assert!(outer.take_panic().is_none());
    }

    #[test]
    #[should_panic(expected = "no live task")]
    fn resuming_a_finished_coroutine_is_refused() {
        let mut co = Coro::new();
        co.start(Box::new(|| {}));
        co.resume();
        co.resume();
    }

    #[test]
    #[should_panic(expected = "suspended task")]
    fn restarting_a_suspended_coroutine_is_refused() {
        let mut co = Coro::new();
        co.start(Box::new(suspend));
        co.resume();
        co.start(Box::new(|| {}));
    }

    #[test]
    #[should_panic(expected = "outside a coroutine")]
    fn suspending_outside_a_coroutine_is_refused() {
        suspend();
    }
}
