//! The parser as it was before it read the text in one pass: every line
//! collected first, separators found by `split_once`, ids read by
//! `str::parse`. Changed from the original in its imports (it returns
//! `bw_ir::TextError`) and by the three fixes the new parser carries too, so
//! the differential tests compare like with like: an id or count is a
//! canonical decimal (`canonical`: no `+`, no leading zero), a value id no
//! smaller than the input's length is rejected before the value table grows
//! to it, and the inferred resource counts saturate at `u32::MAX`.

use bw_ir::{
    BarrierId, BinOp, Block, BlockId, CallSiteId, CmpOp, FuncId, FuncTable, Function, Global,
    GlobalId, Inst, Module, MutexId, Op, PhiIncoming, Ptr, Space, TableId, TextError, Type,
    UnOp, Val, ValueDef, ValueId,
};

/// Parses a module from the textual form emitted by `ModulePrinter`.
///
/// The result is not verified; run [`crate::verify_module`] on it before
/// executing. Structural round-trip holds: printing a module and parsing the
/// text yields an equal module.
pub fn parse_module(input: &str) -> Result<Module, TextError> {
    Parser::new(input).module()
}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, TextError> {
    Err(TextError { line, message: message.into() })
}

struct Parser<'a> {
    /// `(1-based line number, trimmed text)` for every non-blank line.
    lines: Vec<(usize, &'a str)>,
    pos: usize,
    /// Highest referenced resource ids, for count inference when the
    /// corresponding directive is absent (hand-written files).
    used_mutexes: u32,
    used_barriers: u32,
    used_call_sites: u32,
    /// Bytes of input: a bound no value id of a parsable module reaches.
    input_len: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        let lines = input
            .lines()
            .enumerate()
            .map(|(i, l)| (i + 1, l.trim()))
            .filter(|(_, l)| !l.is_empty())
            .collect();
        Parser {
            lines,
            pos: 0,
            used_mutexes: 0,
            used_barriers: 0,
            used_call_sites: 0,
            input_len: input.len(),
        }
    }

    fn next(&mut self) -> Option<(usize, &'a str)> {
        let item = self.lines.get(self.pos).copied();
        if item.is_some() {
            self.pos += 1;
        }
        item
    }

    fn module(&mut self) -> Result<Module, TextError> {
        let (line, header) = match self.next() {
            Some(l) => l,
            None => return err(1, "empty input; expected `module NAME {`"),
        };
        let name = header
            .strip_prefix("module ")
            .and_then(|r| r.strip_suffix(" {"))
            .ok_or_else(|| TextError {
                line,
                message: format!("expected `module NAME {{`, found `{header}`"),
            })?
            .to_string();

        let mut globals = Vec::new();
        let mut funcs: Vec<Function> = Vec::new();
        // Tables and roles name functions that may not be parsed yet, so they
        // are recorded textually here and resolved after the closing brace.
        let mut pending_tables: Vec<(usize, String, Vec<String>)> = Vec::new();
        let mut pending_roles: Vec<(usize, &'a str, String)> = Vec::new();
        let mut counts: [Option<u32>; 3] = [None, None, None];
        let mut closed = false;

        while let Some((line, text)) = self.next() {
            if text == "}" {
                closed = true;
                break;
            } else if let Some(rest) = text.strip_prefix("global ") {
                globals.push(parse_global(line, rest)?);
            } else if let Some(rest) = text.strip_prefix("table ") {
                let (name, list) = rest.split_once(" = ").ok_or_else(|| TextError {
                    line,
                    message: "expected `table NAME = [..]`".into(),
                })?;
                let inner = list
                    .strip_prefix('[')
                    .and_then(|l| l.strip_suffix(']'))
                    .ok_or_else(|| TextError {
                        line,
                        message: "table list must be bracketed".into(),
                    })?;
                let names = if inner.is_empty() {
                    Vec::new()
                } else {
                    inner.split(", ").map(str::to_string).collect()
                };
                pending_tables.push((line, name.to_string(), names));
            } else if let Some(rest) = text.strip_prefix("mutexes ") {
                counts[0] = Some(parse_count(line, rest, "mutexes")?);
            } else if let Some(rest) = text.strip_prefix("barriers ") {
                counts[1] = Some(parse_count(line, rest, "barriers")?);
            } else if let Some(rest) = text.strip_prefix("callsites ") {
                counts[2] = Some(parse_count(line, rest, "callsites")?);
            } else if let Some(rest) = text.strip_prefix("init ") {
                pending_roles.push((line, "init", rest.to_string()));
            } else if let Some(rest) = text.strip_prefix("spmd ") {
                pending_roles.push((line, "spmd", rest.to_string()));
            } else if let Some(rest) = text.strip_prefix("fini ") {
                pending_roles.push((line, "fini", rest.to_string()));
            } else if text.starts_with("func ") {
                funcs.push(self.function(line, text)?);
            } else {
                return err(line, format!("unexpected module-level line `{text}`"));
            }
        }
        if !closed {
            let last = self.lines.last().map_or(1, |&(n, _)| n);
            return err(last, "unexpected end of input; missing closing `}`");
        }
        if let Some((line, text)) = self.next() {
            return err(line, format!("trailing input after module: `{text}`"));
        }

        let lookup = |line: usize, name: &str| -> Result<FuncId, TextError> {
            funcs
                .iter()
                .position(|f| f.name == name)
                .map(FuncId::from_index)
                .ok_or_else(|| TextError {
                    line,
                    message: format!("unknown function `{name}`"),
                })
        };
        let mut tables = Vec::new();
        for (line, name, names) in pending_tables {
            let funcs = names
                .iter()
                .map(|n| lookup(line, n))
                .collect::<Result<Vec<_>, _>>()?;
            tables.push(FuncTable { name, funcs });
        }
        let mut init = None;
        let mut spmd_entry = None;
        let mut fini = None;
        for (line, role, name) in pending_roles {
            let fid = Some(lookup(line, &name)?);
            match role {
                "init" => init = fid,
                "spmd" => spmd_entry = fid,
                _ => fini = fid,
            }
        }

        Ok(Module {
            name,
            funcs,
            globals,
            num_mutexes: counts[0].unwrap_or(self.used_mutexes),
            num_barriers: counts[1].unwrap_or(self.used_barriers),
            tables,
            init,
            spmd_entry,
            fini,
            num_call_sites: counts[2].unwrap_or(self.used_call_sites),
        })
    }

    fn function(&mut self, line: usize, header: &str) -> Result<Function, TextError> {
        let rest = header
            .strip_prefix("func ")
            .and_then(|r| r.strip_suffix(" {"))
            .ok_or_else(|| TextError {
                line,
                message: "expected `func NAME(..) [-> TY] {`".into(),
            })?;
        let (name, rest) = rest.split_once('(').ok_or_else(|| TextError {
            line,
            message: "missing `(` in function header".into(),
        })?;
        let (params_s, tail) = rest.rsplit_once(')').ok_or_else(|| TextError {
            line,
            message: "missing `)` in function header".into(),
        })?;
        let ret = if tail.is_empty() {
            None
        } else {
            let ty = tail.strip_prefix(" -> ").ok_or_else(|| TextError {
                line,
                message: format!("expected ` -> TY` after params, found `{tail}`"),
            })?;
            Some(parse_type(line, ty)?)
        };

        let mut params = Vec::new();
        if !params_s.is_empty() {
            for (i, p) in params_s.split(", ").enumerate() {
                let (v, ty) = p.split_once(": ").ok_or_else(|| TextError {
                    line,
                    message: format!("expected `vN: TY` parameter, found `{p}`"),
                })?;
                let id = parse_ref(line, v, "v")?;
                if id as usize != i {
                    return err(line, format!("parameter {i} is named v{id}; expected v{i}"));
                }
                params.push(parse_type(line, ty)?);
            }
        }

        // Dense SSA value table: slot v_i holds its type and definition.
        let mut slots: Vec<Option<(Type, ValueDef)>> = params
            .iter()
            .enumerate()
            .map(|(i, &ty)| Some((ty, ValueDef::Param(i))))
            .collect();

        let mut blocks: Vec<Block> = Vec::new();
        loop {
            let (line, text) = match self.next() {
                Some(l) => l,
                None => return err(line, "unexpected end of input inside function body"),
            };
            if text == "}" {
                break;
            }
            if let Some(label) = parse_block_label(text) {
                let (id, name) = label;
                if id as usize != blocks.len() {
                    return err(
                        line,
                        format!("block bb{id} out of order; expected bb{}", blocks.len()),
                    );
                }
                blocks.push(Block { insts: Vec::new(), name });
                continue;
            }
            if blocks.is_empty() {
                return err(line, "instruction before any block label");
            }
            let bb = BlockId::from_index(blocks.len() - 1);
            let inst = self.inst(line, text)?;
            if let (Some(r), Some(ty)) = (inst.result, inst.ty) {
                let idx = r.index();
                if idx >= self.input_len {
                    return err(line, format!("value {r} is out of range"));
                }
                if idx >= slots.len() {
                    slots.resize(idx + 1, None);
                }
                if slots[idx].is_some() {
                    return err(line, format!("value {r} defined more than once"));
                }
                let def = ValueDef::Inst {
                    block: bb,
                    inst_index: blocks[bb.index()].insts.len(),
                };
                slots[idx] = Some((ty, def));
            }
            blocks[bb.index()].insts.push(inst);
        }

        let mut defs = Vec::with_capacity(slots.len());
        let mut value_types = Vec::with_capacity(slots.len());
        for (i, slot) in slots.into_iter().enumerate() {
            match slot {
                Some((ty, def)) => {
                    value_types.push(ty);
                    defs.push(def);
                }
                None => {
                    return err(line, format!("in `{name}`: value v{i} is never defined"))
                }
            }
        }

        Ok(Function { name: name.to_string(), params, ret, blocks, defs, value_types })
    }

    fn inst(&mut self, line: usize, text: &str) -> Result<Inst, TextError> {
        // `vN: TY = OP` defines a result; anything else is a bare op (no op
        // mnemonic contains ` = `, so the split is unambiguous).
        let (result, ty, op_text) = match text.split_once(" = ") {
            Some((lhs, rhs)) => {
                let (v, ty) = lhs.split_once(": ").ok_or_else(|| TextError {
                    line,
                    message: format!("expected `vN: TY = ..`, found `{text}`"),
                })?;
                let id = ValueId(parse_ref(line, v, "v")?);
                (Some(id), Some(parse_type(line, ty)?), rhs)
            }
            None => (None, None, text),
        };
        let op = self.op(line, op_text, ty)?;
        Ok(Inst { op, result, ty })
    }

    fn op(&mut self, line: usize, text: &str, ty: Option<Type>) -> Result<Op, TextError> {
        let (head, rest) = text.split_once(' ').unwrap_or((text, ""));
        let value = |s: &str| parse_ref(line, s, "v").map(ValueId);
        let block = |s: &str| parse_ref(line, s, "bb").map(BlockId);
        let two = |s: &str| -> Result<(ValueId, ValueId), TextError> {
            let (a, b) = s.split_once(", ").ok_or_else(|| TextError {
                line,
                message: format!("expected two operands, found `{s}`"),
            })?;
            Ok((value(a)?, value(b)?))
        };
        let bin = |op: BinOp| two(rest).map(|(lhs, rhs)| Op::Bin { op, lhs, rhs });
        let un = |op: UnOp| value(rest).map(|operand| Op::Un { op, operand });

        Ok(match head {
            "const" => {
                let ty = ty.ok_or_else(|| TextError {
                    line,
                    message: "`const` requires a typed result".into(),
                })?;
                Op::Const(parse_val(line, rest, ty)?)
            }
            "add" => bin(BinOp::Add)?,
            "sub" => bin(BinOp::Sub)?,
            "mul" => bin(BinOp::Mul)?,
            "div" => bin(BinOp::Div)?,
            "rem" => bin(BinOp::Rem)?,
            "and" => bin(BinOp::And)?,
            "or" => bin(BinOp::Or)?,
            "xor" => bin(BinOp::Xor)?,
            "shl" => bin(BinOp::Shl)?,
            "shr" => bin(BinOp::Shr)?,
            "min" => bin(BinOp::Min)?,
            "max" => bin(BinOp::Max)?,
            "neg" => un(UnOp::Neg)?,
            "not" => un(UnOp::Not)?,
            "i2f" => un(UnOp::IntToFloat)?,
            "f2i" => un(UnOp::FloatToInt)?,
            "sqrt" => un(UnOp::Sqrt)?,
            "abs" => un(UnOp::Abs)?,
            _ if head.starts_with("cmp.") => {
                let op = match &head[4..] {
                    "eq" => CmpOp::Eq,
                    "ne" => CmpOp::Ne,
                    "lt" => CmpOp::Lt,
                    "le" => CmpOp::Le,
                    "gt" => CmpOp::Gt,
                    "ge" => CmpOp::Ge,
                    other => {
                        return err(line, format!("unknown comparison `cmp.{other}`"))
                    }
                };
                let (lhs, rhs) = two(rest)?;
                Op::Cmp { op, lhs, rhs }
            }
            "phi" => {
                let ty = ty.ok_or_else(|| TextError {
                    line,
                    message: "`phi` requires a typed result".into(),
                })?;
                let mut incomings = Vec::new();
                for part in rest.split("], ") {
                    let inner =
                        part.trim_start_matches('[').trim_end_matches(']');
                    let (bb, v) = inner.split_once(", ").ok_or_else(|| TextError {
                        line,
                        message: format!("expected `[bbN, vM]` incoming, found `{part}`"),
                    })?;
                    incomings.push(PhiIncoming { block: block(bb)?, value: value(v)? });
                }
                Op::Phi { incomings, ty }
            }
            "globaladdr" => Op::GlobalAddr(GlobalId(parse_ref(line, rest, "g")?)),
            _ if head.starts_with("load.") => {
                let ty = parse_type(line, &head[5..])?;
                Op::Load { addr: value(rest)?, ty }
            }
            "gep" => {
                let (base, offset) = two(rest)?;
                Op::Gep { base, offset }
            }
            "store" => {
                let (v, addr) = rest.split_once(" -> ").ok_or_else(|| TextError {
                    line,
                    message: "expected `store vV -> vA`".into(),
                })?;
                Op::Store { addr: value(addr)?, value: value(v)? }
            }
            "alloca" => Op::Alloca { size: value(rest)? },
            "threadid" => Op::ThreadId,
            "numthreads" => Op::NumThreads,
            "fetchadd" => {
                let (g, delta) = rest.split_once(", ").ok_or_else(|| TextError {
                    line,
                    message: "expected `fetchadd gN, vD`".into(),
                })?;
                Op::AtomicFetchAdd {
                    global: GlobalId(parse_ref(line, g, "g")?),
                    delta: value(delta)?,
                }
            }
            "call" => {
                let (callee, tail) = rest.split_once('(').ok_or_else(|| TextError {
                    line,
                    message: "expected `call fnN(..) @csM`".into(),
                })?;
                let (args, site) = parse_call_tail(line, tail)?;
                self.used_call_sites = self.used_call_sites.max(site.0.saturating_add(1));
                Op::Call {
                    func: FuncId(parse_ref(line, callee, "fn")?),
                    args: args.iter().map(|a| value(a)).collect::<Result<_, _>>()?,
                    site,
                }
            }
            "icall" => {
                let (table, tail) = rest.split_once('[').ok_or_else(|| TextError {
                    line,
                    message: "expected `icall tblN[vS](..) @csM`".into(),
                })?;
                let (selector, tail) = tail.split_once("](").ok_or_else(|| TextError {
                    line,
                    message: "expected `](` after icall selector".into(),
                })?;
                let (args, site) = parse_call_tail(line, tail)?;
                self.used_call_sites = self.used_call_sites.max(site.0.saturating_add(1));
                Op::CallIndirect {
                    table: TableId(parse_ref(line, table, "tbl")?),
                    selector: value(selector)?,
                    args: args.iter().map(|a| value(a)).collect::<Result<_, _>>()?,
                    site,
                }
            }
            "output" => Op::Output(value(rest)?),
            "lock" => {
                let m = MutexId(parse_ref(line, rest, "mtx")?);
                self.used_mutexes = self.used_mutexes.max(m.0.saturating_add(1));
                Op::MutexLock(m)
            }
            "unlock" => {
                let m = MutexId(parse_ref(line, rest, "mtx")?);
                self.used_mutexes = self.used_mutexes.max(m.0.saturating_add(1));
                Op::MutexUnlock(m)
            }
            "barrier" => {
                let b = BarrierId(parse_ref(line, rest, "bar")?);
                self.used_barriers = self.used_barriers.max(b.0.saturating_add(1));
                Op::Barrier(b)
            }
            "rand" => Op::Rand { bound: value(rest)? },
            "br" => {
                let mut parts = rest.split(", ");
                let (c, t, e) = match (parts.next(), parts.next(), parts.next(), parts.next())
                {
                    (Some(c), Some(t), Some(e), None) => (c, t, e),
                    _ => return err(line, "expected `br vC, bbT, bbE`"),
                };
                Op::Br { cond: value(c)?, then_bb: block(t)?, else_bb: block(e)? }
            }
            "jump" => Op::Jump(block(rest)?),
            "ret" => {
                if rest.is_empty() {
                    Op::Ret(None)
                } else {
                    Op::Ret(Some(value(rest)?))
                }
            }
            "trap" => Op::Trap,
            other => return err(line, format!("unknown instruction `{other}`")),
        })
    }
}

/// Parses `bbN:` or `bbN: ; comment`, returning `None` for non-label lines.
fn parse_block_label(text: &str) -> Option<(u32, Option<String>)> {
    let rest = text.strip_prefix("bb")?;
    let (digits, tail) = match rest.find(':') {
        Some(i) => (&rest[..i], &rest[i + 1..]),
        None => return None,
    };
    let id = canonical(digits)?;
    if tail.is_empty() {
        Some((id, None))
    } else {
        let name = tail.strip_prefix(" ; ")?;
        Some((id, Some(name.to_string())))
    }
}

fn parse_global(line: usize, rest: &str) -> Result<Global, TextError> {
    let (name, rest) = rest.split_once(" : ").ok_or_else(|| TextError {
        line,
        message: "expected `global NAME : TY xLEN [shared] [tid_counter] = INIT`".into(),
    })?;
    let (head, init_s) = rest.split_once(" = ").ok_or_else(|| TextError {
        line,
        message: "missing ` = INIT` in global".into(),
    })?;
    let mut parts = head.split_whitespace();
    let ty = parse_type(line, parts.next().unwrap_or(""))?;
    let len_s = parts.next().unwrap_or("");
    let len = len_s
        .strip_prefix('x')
        .and_then(|s| s.parse::<u64>().ok())
        .ok_or_else(|| TextError {
            line,
            message: format!("expected `xLEN` after global type, found `{len_s}`"),
        })?;
    let (mut shared, mut tid_counter) = (false, false);
    for flag in parts {
        match flag {
            "shared" => shared = true,
            "tid_counter" => tid_counter = true,
            other => return err(line, format!("unknown global flag `{other}`")),
        }
    }
    let init = parse_val(line, init_s, ty)?;
    Ok(Global { name: name.to_string(), ty, len, init, shared, tid_counter })
}

fn parse_call_tail(
    line: usize,
    tail: &str,
) -> Result<(Vec<&str>, CallSiteId), TextError> {
    let (args_s, site_s) = tail.rsplit_once(") @").ok_or_else(|| TextError {
        line,
        message: "expected `) @csM` closing a call".into(),
    })?;
    let args =
        if args_s.is_empty() { Vec::new() } else { args_s.split(", ").collect() };
    Ok((args, CallSiteId(parse_ref(line, site_s, "cs")?)))
}

fn parse_count(line: usize, s: &str, what: &str) -> Result<u32, TextError> {
    canonical(s).ok_or_else(|| TextError {
        line,
        message: format!("invalid `{what}` count `{s}`"),
    })
}

fn parse_ref(line: usize, s: &str, prefix: &str) -> Result<u32, TextError> {
    s.strip_prefix(prefix)
        .and_then(canonical)
        .ok_or_else(|| TextError {
            line,
            message: format!("expected `{prefix}N`, found `{s}`"),
        })
}

/// `s` as a decimal `u32` written the printer's way: no sign, no leading
/// zero.
fn canonical(s: &str) -> Option<u32> {
    if s.starts_with('+') || (s.len() > 1 && s.starts_with('0')) {
        None
    } else {
        s.parse().ok()
    }
}

fn parse_type(line: usize, s: &str) -> Result<Type, TextError> {
    match s {
        "i64" => Ok(Type::I64),
        "f64" => Ok(Type::F64),
        "bool" => Ok(Type::Bool),
        "ptr" => Ok(Type::Ptr),
        other => err(line, format!("unknown type `{other}`")),
    }
}

fn parse_val(line: usize, s: &str, ty: Type) -> Result<Val, TextError> {
    let bad = || TextError { line, message: format!("invalid {ty} literal `{s}`") };
    match ty {
        Type::I64 => s.parse().map(Val::I64).map_err(|_| bad()),
        Type::F64 => s.parse().map(Val::F64).map_err(|_| bad()),
        Type::Bool => match s {
            "true" => Ok(Val::Bool(true)),
            "false" => Ok(Val::Bool(false)),
            _ => Err(bad()),
        },
        Type::Ptr => {
            let (space, rest) = if let Some(r) = s.strip_prefix("&shared[") {
                (Space::Shared, r)
            } else if let Some(r) = s.strip_prefix("&local[") {
                (Space::Local, r)
            } else {
                return Err(bad());
            };
            let inner = rest.strip_suffix(']').ok_or_else(bad)?;
            let (region, offset) = inner.split_once('+').ok_or_else(bad)?;
            Ok(Val::Ptr(Ptr {
                space,
                region: region.parse().map_err(|_| bad())?,
                offset: offset.parse().map_err(|_| bad())?,
            }))
        }
    }
}

