//! The debugged application: a pre-layout assembly unit, prepared once.
//!
//! Assembling and loading an application is the same work for every
//! session that debugs it, so an [`Application`] does it once, on first
//! use, and keeps the result: the layout facts (text, symbols, entry,
//! stack top, statement PCs) and the loaded image as a copy-on-write
//! [`Checkpoint`]. A session's machine restores that image in
//! O(page-table) and unshares only the pages it writes. Clones share the
//! preparation, and so do applications derived with
//! [`Application::with_quad`], which differ from their base in one
//! initialised data quad (a kernel's iteration count, say).

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::{Arc, OnceLock};

use dise_asm::{Asm, AsmError, Layout, Program};
use dise_cpu::{CpuConfig, Executor, Fingerprint};
use dise_isa::{decode, Instr, Reg, INSTR_BYTES};
use dise_mem::{Checkpoint, Memory};

/// An application handed to the debugger *before* layout, so that
/// backends that statically transform code (binary rewriting) can
/// re-assemble it, while the others run the prepared image.
///
/// A shared handle: cloning is O(1), and every clone sees the one
/// preparation ([`Application::prepared`]).
#[derive(Clone)]
pub struct Application(Arc<Inner>);

// Sessions carry their application onto scheduler worker threads.
const _: () = {
    const fn send_sync<T: Send + Sync>() {}
    send_sync::<Application>();
};

struct Inner {
    origin: Origin,
    prepared: OnceLock<Result<Prepared, AsmError>>,
}

enum Origin {
    /// An assembly unit of its own.
    Unit { asm: Asm, layout: Layout },
    /// A unit's program with initialised data quads overwritten, in
    /// order: `(address, value)`.
    Patched { root: Application, quads: Vec<(u64, u64)> },
}

impl Application {
    /// Wrap an assembly unit. Nothing is assembled until first use, so
    /// a unit that fails to assemble reports [`AsmError`] from every
    /// entry point that needs it.
    pub fn new(asm: Asm, layout: Layout) -> Application {
        Application(Arc::new(Inner {
            origin: Origin::Unit { asm, layout },
            prepared: OnceLock::new(),
        }))
    }

    /// The unit this application was made from, and the quads written
    /// over its data.
    fn root(&self) -> (&Application, &[(u64, u64)]) {
        match &self.0.origin {
            Origin::Unit { .. } => (self, &[]),
            Origin::Patched { root, quads } => (root, quads),
        }
    }

    /// The assembly unit and layout this application was made from.
    fn unit(&self) -> (&Asm, Layout) {
        let (root, _) = self.root();
        match &root.0.origin {
            Origin::Unit { asm, layout } => (asm, *layout),
            Origin::Patched { .. } => unreachable!("a root is a unit"),
        }
    }

    /// The assembly unit (pre-layout). A derived application shares its
    /// base's unit; its quads are written over the assembled data.
    pub fn asm(&self) -> &Asm {
        self.unit().0
    }

    /// The layout used for assembly.
    pub fn layout(&self) -> Layout {
        self.unit().1
    }

    /// Assemble the unmodified image, with this application's quads
    /// written over its data. Sessions never call this: they run the
    /// prepared image.
    ///
    /// # Errors
    ///
    /// Propagates assembly errors.
    pub fn program(&self) -> Result<Program, AsmError> {
        let (root, quads) = self.root();
        let mut prog = root.asm().assemble(root.layout())?;
        for &(addr, value) in quads {
            let off = (addr - prog.data_base) as usize;
            prog.data[off..off + 8].copy_from_slice(&value.to_le_bytes());
        }
        Ok(prog)
    }

    /// The application assembled and loaded, once: the first call
    /// prepares it, every later call (from any clone) returns the same
    /// preparation.
    ///
    /// # Errors
    ///
    /// The assembly error, every time, when the unit does not assemble.
    pub fn prepared(&self) -> Result<&Prepared, AsmError> {
        self.0.prepared.get_or_init(|| self.prepare()).as_ref().map_err(Clone::clone)
    }

    fn prepare(&self) -> Result<Prepared, AsmError> {
        match &self.0.origin {
            Origin::Unit { asm, layout } => Ok(Prepared::load(asm.assemble(*layout)?)),
            Origin::Patched { root, quads } => {
                let base = root.prepared()?;
                let mut mem = base.image.memory();
                for &(addr, value) in quads {
                    mem.write_u(addr, 8, value);
                }
                Ok(Prepared {
                    facts: Arc::clone(&base.facts),
                    image: Arc::new(Image { mem: mem.checkpoint(), ..*base.image }),
                    fingerprint: OnceLock::new(),
                })
            }
        }
    }

    /// This application with the initialised data quad at `addr` set to
    /// `value`. The result shares this application's assembly unit and,
    /// once prepared, its preparation: its image is the base image with
    /// one page written, and its [`Prepared::fingerprint`] and
    /// [`Application::program`] describe the patched bytes. Nothing is
    /// assembled or loaded here.
    ///
    /// # Panics
    ///
    /// Panics when the quad does not lie inside the initialised data
    /// segment: only an initialised quad has a place in the program to
    /// patch. (A unit whose data does not lay out is not checked; the
    /// result reports its assembly error.)
    #[must_use]
    pub fn with_quad(&self, addr: u64, value: u64) -> Application {
        let (root, quads) = self.root();
        let (asm, layout) = root.unit();
        if let Ok(data) = asm.data_layout(layout.data_base) {
            let data_end = data.end;
            assert!(
                layout.data_base <= addr && addr.checked_add(8).is_some_and(|end| end <= data_end),
                "quad {addr:#x} is outside the initialised data {:#x}..{data_end:#x}",
                layout.data_base,
            );
        }
        let mut quads: Vec<(u64, u64)> =
            quads.iter().copied().filter(|&(a, _)| a != addr).collect();
        quads.push((addr, value));
        Application(Arc::new(Inner {
            origin: Origin::Patched { root: root.clone(), quads },
            prepared: OnceLock::new(),
        }))
    }
}

impl PartialEq for Application {
    /// Equal when both describe the same program: the same unit under
    /// the same layout, with the same quads written over it.
    fn eq(&self, other: &Application) -> bool {
        if Arc::ptr_eq(&self.0, &other.0) {
            return true;
        }
        let ((a, qa), (b, qb)) = (self.root(), other.root());
        qa == qb && (Arc::ptr_eq(&a.0, &b.0) || (a.layout() == b.layout() && a.asm() == b.asm()))
    }
}

impl Eq for Application {}

impl fmt::Debug for Application {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (_, quads) = self.root();
        f.debug_struct("Application")
            .field("layout", &self.layout())
            .field("text_items", &self.asm().text_items().len())
            .field("data_items", &self.asm().data_items().len())
            .field("quads", &quads)
            .finish_non_exhaustive()
    }
}

/// An application assembled and loaded once ([`Application::prepared`]):
/// its layout facts and its image. The initialised data bytes live only
/// in the image.
pub struct Prepared {
    /// Shared by an application and every application derived from it.
    facts: Arc<Facts>,
    image: Arc<Image>,
    fingerprint: OnceLock<u64>,
}

struct Facts {
    text_base: u64,
    text: Vec<u32>,
    data_base: u64,
    data_len: u64,
    symbols: HashMap<String, u64>,
    stmt_pcs: HashSet<u64>,
}

impl Prepared {
    /// Keep `prog`'s layout facts and load its bytes into an image.
    fn load(prog: Program) -> Prepared {
        let mut mem = Memory::new();
        prog.load(&mut mem);
        let image = Image {
            mem: mem.checkpoint(),
            entry: prog.entry,
            stack_top: prog.stack_top,
            text_bytes: prog.text_bytes(),
        };
        let Program { text_base, text, data_base, data, symbols, stmt_pcs, .. } = prog;
        let facts =
            Facts { text_base, text, data_base, data_len: data.len() as u64, symbols, stmt_pcs };
        Prepared { facts: Arc::new(facts), image: Arc::new(image), fingerprint: OnceLock::new() }
    }

    /// Address of a label.
    pub fn symbol(&self, name: &str) -> Option<u64> {
        self.facts.symbols.get(name).copied()
    }

    /// All label addresses (text and data).
    pub fn symbols(&self) -> &HashMap<String, u64> {
        &self.facts.symbols
    }

    /// PCs of source-statement boundaries.
    pub fn stmt_pcs(&self) -> &HashSet<u64> {
        &self.facts.stmt_pcs
    }

    /// Entry PC.
    pub fn entry(&self) -> u64 {
        self.image.entry
    }

    /// Initial stack pointer.
    pub fn stack_top(&self) -> u64 {
        self.image.stack_top
    }

    /// Base address of the text segment.
    pub fn text_base(&self) -> u64 {
        self.facts.text_base
    }

    /// First address past the text segment.
    pub fn text_end(&self) -> u64 {
        self.facts.text_base + self.image.text_bytes
    }

    /// Base address of the data segment.
    pub fn data_base(&self) -> u64 {
        self.facts.data_base
    }

    /// First address past the initialised data segment.
    pub fn data_end(&self) -> u64 {
        self.facts.data_base + self.facts.data_len
    }

    /// Static code size in bytes.
    pub fn text_bytes(&self) -> u64 {
        self.image.text_bytes
    }

    /// The encoded text, one word per instruction.
    pub fn text(&self) -> &[u32] {
        &self.facts.text
    }

    /// Decode the instruction at `pc` from the assembled text. `None`
    /// outside the text segment or for a malformed word.
    pub fn decode_at(&self, pc: u64) -> Option<Instr> {
        if pc < self.text_base() || pc >= self.text_end() || !pc.is_multiple_of(INSTR_BYTES) {
            return None;
        }
        decode(self.facts.text[((pc - self.text_base()) / INSTR_BYTES) as usize]).ok()
    }

    /// A memory holding the loaded image, sharing its pages until
    /// written. O(page-table).
    pub fn memory(&self) -> Memory {
        self.image.memory()
    }

    /// A machine with the image loaded, the PC at the entry and SP at
    /// the stack top — what [`Executor::from_program`] builds from
    /// [`Application::program`], in O(page-table).
    pub fn executor(&self, cpu: CpuConfig) -> Executor {
        self.image.executor(cpu)
    }

    /// [`dise_cpu::program_fingerprint`] of [`Application::program`],
    /// computed from the image on first call and kept.
    pub fn fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| {
            const CHUNK: u64 = 1 << 16;
            let mem = self.memory();
            let mut h = Fingerprint::new();
            h.eat(&self.text_base().to_le_bytes());
            for w in self.text() {
                h.eat(&w.to_le_bytes());
            }
            h.eat(&self.data_base().to_le_bytes());
            let mut at = self.data_base();
            while at < self.data_end() {
                let n = CHUNK.min(self.data_end() - at);
                h.eat(&mem.read_bytes(at, n as usize));
                at += n;
            }
            h.eat(&self.entry().to_le_bytes());
            h.eat(&self.stack_top().to_le_bytes());
            h.finish()
        })
    }

    /// The image a backend runs: this application's, or — when the
    /// backend changes code — this one with `edits` written over a
    /// copy-on-write copy.
    pub(crate) fn image(&self, edits: Option<&Edits>) -> Arc<Image> {
        let Some(edits) = edits else {
            return Arc::clone(&self.image);
        };
        let mut mem = self.memory();
        // `Program::load` writes text, then data: where the new text
        // reaches into the data segment, the data wins.
        let text_end = edits.text_at + edits.text.len() as u64 * INSTR_BYTES;
        let (lo, hi) = (edits.text_at.max(self.data_base()), text_end.min(self.data_end()));
        let kept = (lo < hi).then(|| (lo, mem.read_bytes(lo, (hi - lo) as usize)));
        for (i, word) in edits.text.iter().enumerate() {
            mem.write_u(edits.text_at + i as u64 * INSTR_BYTES, 4, u64::from(*word));
        }
        if let Some((at, bytes)) = kept {
            mem.write_bytes(at, &bytes);
        }
        for &(cell, value) in &edits.relocations {
            mem.write_u(cell, 8, value);
        }
        mem.write_bytes(self.data_end(), &edits.data);
        Arc::new(Image {
            mem: mem.checkpoint(),
            entry: edits.entry,
            stack_top: self.stack_top(),
            text_bytes: text_end - self.text_base(),
        })
    }
}

/// A loaded program image, instantiated copy-on-write per machine.
pub(crate) struct Image {
    mem: Checkpoint,
    entry: u64,
    stack_top: u64,
    /// Static code size (the code-bloat figure).
    pub(crate) text_bytes: u64,
}

impl Image {
    pub(crate) fn memory(&self) -> Memory {
        let mut mem = Memory::new();
        mem.restore(&self.mem);
        mem
    }

    pub(crate) fn executor(&self, cpu: CpuConfig) -> Executor {
        let mut exec = Executor::new(cpu);
        exec.mem_mut().restore(&self.mem);
        exec.set_pc(self.entry);
        exec.set_reg(Reg::SP, self.stack_top);
        exec
    }
}

/// How the program a code-changing backend runs differs from the
/// application's: `text` written from `text_at` (over the application's
/// text, or just past it), address-of quads in the application's data
/// re-pointed at moved text (`relocations`: cell, new value), `data`
/// appended at the application's data end (alignment padding included),
/// and the entry point.
#[derive(Default)]
pub(crate) struct Edits {
    pub(crate) text_at: u64,
    pub(crate) text: Vec<u32>,
    pub(crate) relocations: Vec<(u64, u64)>,
    pub(crate) data: Vec<u8>,
    pub(crate) entry: u64,
}

impl Edits {
    /// Apply to `prog`, the application as assembled: the whole program
    /// the backend runs (symbols stay the application's).
    pub(crate) fn apply(&self, prog: &mut Program) {
        prog.text.truncate(((self.text_at - prog.text_base) / INSTR_BYTES) as usize);
        prog.text.extend_from_slice(&self.text);
        for &(cell, value) in &self.relocations {
            let off = (cell - prog.data_base) as usize;
            prog.data[off..off + 8].copy_from_slice(&value.to_le_bytes());
        }
        prog.data.extend_from_slice(&self.data);
        prog.entry = self.entry;
    }
}
