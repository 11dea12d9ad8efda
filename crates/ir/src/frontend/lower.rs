//! AST → SSA lowering.
//!
//! Mutable source-level variables become SSA values with the incremental
//! algorithm of Braun et al. ("Simple and Efficient Construction of Static
//! Single Assignment Form", CC 2013): definitions are recorded per
//! `(variable, block)`, reads recurse through predecessors, loop headers
//! receive *incomplete* phis that are completed when the block is sealed.
//!
//! Trivial phis (all incomings equal, ignoring self-references) are left in
//! place; the similarity analysis treats them as copies, so no precision is
//! lost and no use-rewriting machinery is needed.

use std::collections::HashMap;
use std::fmt;

use crate::builder::FunctionBuilder;
use crate::frontend::ast::*;
use crate::frontend::lexer::Pos;
use crate::frontend::parser::ParseError;
use crate::ids::{BarrierId, BlockId, FuncId, GlobalId, MutexId, TableId, ValueId};
use crate::inst::{BinOp, Op, UnOp};
use crate::module::Module;
use crate::value::{Type, Val};
use crate::verify::{verify_module, VerifyError};

/// An error produced while lowering (type errors, unresolved names, …).
#[derive(Clone, Debug, PartialEq)]
pub struct LowerError {
    /// What went wrong.
    pub message: String,
    /// Source position, when known.
    pub pos: Option<Pos>,
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.pos {
            Some(pos) => write!(f, "error at {pos}: {}", self.message),
            None => write!(f, "error: {}", self.message),
        }
    }
}

impl std::error::Error for LowerError {}

/// Any front-end failure: parsing, lowering, or final verification.
#[derive(Clone, Debug, PartialEq)]
pub enum FrontendError {
    /// Syntax error.
    Parse(ParseError),
    /// Semantic error during lowering.
    Lower(LowerError),
    /// The lowered module failed IR verification (an internal bug if the
    /// lowering accepted the input).
    Verify(VerifyError),
}

impl fmt::Display for FrontendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrontendError::Parse(e) => e.fmt(f),
            FrontendError::Lower(e) => e.fmt(f),
            FrontendError::Verify(e) => write!(f, "post-lowering verification failed: {e}"),
        }
    }
}

impl std::error::Error for FrontendError {}

impl From<ParseError> for FrontendError {
    fn from(e: ParseError) -> Self {
        FrontendError::Parse(e)
    }
}

impl From<LowerError> for FrontendError {
    fn from(e: LowerError) -> Self {
        FrontendError::Lower(e)
    }
}

/// Parses and lowers a source file into a verified [`Module`].
///
/// # Errors
///
/// Returns a [`FrontendError`] on syntax errors, semantic errors, or (in
/// case of an internal lowering bug) verification failures.
pub fn compile(source: &str) -> Result<Module, FrontendError> {
    let ast = crate::frontend::parser::parse(source)?;
    let module = lower(&ast)?;
    verify_module(&module).map_err(FrontendError::Verify)?;
    Ok(module)
}

fn err<T>(message: impl Into<String>, pos: Pos) -> Result<T, LowerError> {
    Err(LowerError { message: message.into(), pos: Some(pos) })
}

/// Lowers a parsed module.
///
/// # Errors
///
/// Returns a [`LowerError`] on semantic errors (unknown names, type
/// mismatches, misplaced `break`, …).
pub fn lower(ast: &AstModule) -> Result<Module, LowerError> {
    let mut module = Module::new(ast.name.clone());
    let mut globals = HashMap::new();
    let mut mutexes = HashMap::new();
    let mut barriers = HashMap::new();
    let mut tables = HashMap::new();

    for g in &ast.globals {
        let init = match (g.init, g.ty) {
            (None, ty) => Val::zero(ty),
            (Some(Literal::Int(v)), Type::I64) => Val::I64(v),
            (Some(Literal::Float(v)), Type::F64) => Val::F64(v),
            (Some(Literal::Bool(v)), Type::Bool) => Val::Bool(v),
            (Some(_), ty) => {
                return err(format!("initializer of `{}` does not have type {ty}", g.name), g.pos)
            }
        };
        if globals.contains_key(&g.name) {
            return err(format!("duplicate global `{}`", g.name), g.pos);
        }
        let id = module.add_array(g.name.clone(), g.ty, g.len.unwrap_or(1), init, g.shared);
        if g.tid_counter {
            module.mark_tid_counter(id);
        }
        globals.insert(g.name.clone(), (id, g.ty, g.len.is_some()));
    }
    for name in &ast.mutexes {
        mutexes.insert(name.clone(), module.add_mutex());
    }
    for name in &ast.barriers {
        barriers.insert(name.clone(), module.add_barrier());
    }

    // Register signatures up front so calls can be resolved in any order.
    let mut sigs: HashMap<String, (FuncId, Vec<Type>, Option<Type>)> = HashMap::new();
    for (i, f) in ast.funcs.iter().enumerate() {
        let params: Vec<Type> = f.params.iter().map(|(_, t)| *t).collect();
        if sigs
            .insert(f.name.clone(), (FuncId::from_index(i), params, f.ret))
            .is_some()
        {
            return err(format!("duplicate function `{}`", f.name), f.pos);
        }
    }

    let mut table_sigs = HashMap::new();
    for t in &ast.tables {
        let mut funcs = Vec::new();
        for name in &t.funcs {
            let Some((id, _, _)) = sigs.get(name) else {
                return err(format!("table `{}` references unknown function `{name}`", t.name), t.pos);
            };
            funcs.push(*id);
        }
        let first = &t.funcs[0];
        let (_, params, ret) = sigs[first.as_str()].clone();
        let id = module.add_table(t.name.clone(), funcs);
        tables.insert(t.name.clone(), id);
        table_sigs.insert(t.name.clone(), (params, ret));
    }

    let ctx = ModuleCtx { globals, mutexes, barriers, tables, table_sigs, sigs };

    let mut next_call_site = 0u32;
    for f in &ast.funcs {
        if f.role != FuncRole::Plain && (!f.params.is_empty() || f.ret.is_some()) {
            return err(
                format!("`{}` has a role attribute and must take no parameters and return nothing", f.name),
                f.pos,
            );
        }
        let func = FuncLowerer::lower_func(&ctx, f, &mut next_call_site)?;
        module.add_func(func);
        let id = FuncId::from_index(module.funcs.len() - 1);
        let slot = match f.role {
            FuncRole::Plain => None,
            FuncRole::Init => Some(&mut module.init),
            FuncRole::Spmd => Some(&mut module.spmd_entry),
            FuncRole::Fini => Some(&mut module.fini),
        };
        if let Some(slot) = slot {
            if slot.is_some() {
                return err(format!("multiple functions with the role of `{}`", f.name), f.pos);
            }
            *slot = Some(id);
        }
    }
    module.num_call_sites = next_call_site;
    Ok(module)
}

struct ModuleCtx {
    globals: HashMap<String, (GlobalId, Type, bool)>, // (id, elem type, is_array)
    mutexes: HashMap<String, MutexId>,
    barriers: HashMap<String, BarrierId>,
    tables: HashMap<String, TableId>,
    /// Shared signature of each table's callees.
    table_sigs: HashMap<String, (Vec<Type>, Option<Type>)>,
    sigs: HashMap<String, (FuncId, Vec<Type>, Option<Type>)>,
}

/// A source-level variable slot.
#[derive(Clone, Copy, Debug)]
struct Slot {
    index: usize,
    /// For scalars, the value type; for arrays, the element type (the SSA
    /// value bound to the slot is the `Ptr` from its `alloca`).
    ty: Type,
    is_array: bool,
}

struct LoopCtx {
    continue_target: BlockId,
    break_target: BlockId,
}

struct FuncLowerer<'c> {
    ctx: &'c ModuleCtx,
    b: FunctionBuilder,
    ret: Option<Type>,
    /// Per-(slot, block) SSA definitions.
    defs: HashMap<(usize, BlockId), ValueId>,
    slot_types: Vec<(Type, bool)>,
    sealed: Vec<bool>,
    preds: Vec<Vec<BlockId>>,
    incomplete: HashMap<BlockId, Vec<(usize, ValueId)>>,
    scopes: Vec<HashMap<String, Slot>>,
    loops: Vec<LoopCtx>,
    reachable: bool,
    next_call_site: &'c mut u32,
}

impl<'c> FuncLowerer<'c> {
    fn lower_func(
        ctx: &'c ModuleCtx,
        f: &AstFunc,
        next_call_site: &'c mut u32,
    ) -> Result<crate::function::Function, LowerError> {
        let params: Vec<Type> = f.params.iter().map(|(_, t)| *t).collect();
        let b = FunctionBuilder::new(f.name.clone(), params, f.ret);
        let mut fl = FuncLowerer {
            ctx,
            b,
            ret: f.ret,
            defs: HashMap::new(),
            slot_types: Vec::new(),
            sealed: vec![true], // entry block has no predecessors
            preds: vec![Vec::new()],
            incomplete: HashMap::new(),
            scopes: vec![HashMap::new()],
            loops: Vec::new(),
            reachable: true,
            next_call_site,
        };
        // Bind parameters as variables.
        for (i, (name, ty)) in f.params.iter().enumerate() {
            let slot = fl.new_slot(*ty, false);
            fl.scopes
                .last_mut()
                .expect("scope stack never empty")
                .insert(name.clone(), slot);
            let param = fl.b.param(i);
            fl.write_var(slot.index, fl.b.current_block(), param);
        }
        fl.lower_stmts(&f.body)?;
        if fl.reachable {
            match f.ret {
                None => fl.b.ret(None),
                Some(_) => {
                    return err(format!("function `{}` may fall off the end without returning", f.name), f.pos)
                }
            }
        }
        if !fl.incomplete.is_empty() {
            // Internal invariant: all blocks must be sealed by now.
            return Err(LowerError {
                message: format!("internal: unsealed blocks remain in `{}`", f.name),
                pos: None,
            });
        }
        let mut func = fl.b.finish();
        // Unreachable blocks created for dead arms may lack terminators;
        // cap them with traps so the function is structurally complete.
        for block in &mut func.blocks {
            let needs_cap = block.insts.last().is_none_or(|inst| !inst.op.is_terminator());
            if needs_cap {
                block
                    .insts
                    .push(crate::inst::Inst { op: Op::Trap, result: None, ty: None });
            }
        }
        Ok(func)
    }

    // ----- SSA bookkeeping (Braun et al.) -----

    fn new_slot(&mut self, ty: Type, is_array: bool) -> Slot {
        let index = self.slot_types.len();
        self.slot_types.push((ty, is_array));
        Slot { index, ty, is_array }
    }

    fn slot_value_type(&self, slot: usize) -> Type {
        let (ty, is_array) = self.slot_types[slot];
        if is_array {
            Type::Ptr
        } else {
            ty
        }
    }

    fn write_var(&mut self, slot: usize, block: BlockId, value: ValueId) {
        self.defs.insert((slot, block), value);
    }

    fn read_var(&mut self, slot: usize, block: BlockId) -> ValueId {
        if let Some(&v) = self.defs.get(&(slot, block)) {
            return v;
        }
        let value = if !self.sealed[block.index()] {
            let phi = self.b.insert_phi_at_head(block, self.slot_value_type(slot));
            self.incomplete.entry(block).or_default().push((slot, phi));
            phi
        } else if self.preds[block.index()].len() == 1 {
            let pred = self.preds[block.index()][0];
            self.read_var(slot, pred)
        } else if self.preds[block.index()].is_empty() {
            // Unreachable block or genuine use-before-def; lowering
            // default-initializes all variables, so this is internal.
            panic!("read of variable slot {slot} in block {block} with no predecessors");
        } else {
            let phi = self.b.insert_phi_at_head(block, self.slot_value_type(slot));
            self.write_var(slot, block, phi);
            self.add_phi_operands(slot, phi, block);
            phi
        };
        self.write_var(slot, block, value);
        value
    }

    fn add_phi_operands(&mut self, slot: usize, phi: ValueId, block: BlockId) {
        let preds = self.preds[block.index()].clone();
        for pred in preds {
            let v = self.read_var(slot, pred);
            self.b.add_phi_incoming(phi, pred, v);
        }
    }

    fn seal(&mut self, block: BlockId) {
        debug_assert!(!self.sealed[block.index()], "sealing {block} twice");
        self.sealed[block.index()] = true;
        if let Some(pending) = self.incomplete.remove(&block) {
            for (slot, phi) in pending {
                self.add_phi_operands(slot, phi, block);
            }
        }
    }

    fn new_block(&mut self, name: &str) -> BlockId {
        let bb = self.b.add_block(name);
        self.sealed.push(false);
        self.preds.push(Vec::new());
        bb
    }

    fn edge(&mut self, from: BlockId, to: BlockId) {
        self.preds[to.index()].push(from);
    }

    fn emit_jump(&mut self, target: BlockId) {
        let from = self.b.current_block();
        self.b.jump(target);
        self.edge(from, target);
    }

    fn emit_br(&mut self, cond: ValueId, then_bb: BlockId, else_bb: BlockId) {
        let from = self.b.current_block();
        self.b.br(cond, then_bb, else_bb);
        self.edge(from, then_bb);
        self.edge(from, else_bb);
    }

    // ----- scopes -----

    fn push_scope(&mut self) {
        self.scopes.push(HashMap::new());
    }

    fn pop_scope(&mut self) {
        self.scopes.pop();
    }

    fn lookup_var(&self, name: &str) -> Option<Slot> {
        self.scopes.iter().rev().find_map(|s| s.get(name).copied())
    }

    fn declare_var(&mut self, name: &str, slot: Slot, pos: Pos) -> Result<(), LowerError> {
        let scope = self.scopes.last_mut().expect("scope stack never empty");
        if scope.contains_key(name) {
            return err(format!("`{name}` already declared in this scope"), pos);
        }
        scope.insert(name.to_string(), slot);
        Ok(())
    }

    // ----- statements -----

    fn lower_stmts(&mut self, stmts: &[Stmt]) -> Result<(), LowerError> {
        for stmt in stmts {
            if !self.reachable {
                break; // dead code after return/break/continue/trap
            }
            self.lower_stmt(stmt)?;
        }
        Ok(())
    }

    fn lower_block(&mut self, stmts: &[Stmt]) -> Result<(), LowerError> {
        self.push_scope();
        let result = self.lower_stmts(stmts);
        self.pop_scope();
        result
    }

    fn lower_stmt(&mut self, stmt: &Stmt) -> Result<(), LowerError> {
        match stmt {
            Stmt::VarDecl { name, ty, len, init, pos } => {
                if let Some(len) = len {
                    let (size, size_ty) = self.lower_expr(len)?;
                    if size_ty != Type::I64 {
                        return err("array length must be an int", *pos);
                    }
                    let ptr = self.b.alloca(size);
                    let slot = self.new_slot(*ty, true);
                    self.declare_var(name, slot, *pos)?;
                    self.write_var(slot.index, self.b.current_block(), ptr);
                } else {
                    let (value, value_ty) = match init {
                        Some(e) => self.lower_expr(e)?,
                        None => (self.const_zero(*ty), *ty),
                    };
                    if value_ty != *ty {
                        return err(
                            format!("`{name}` declared as {ty} but initialized with {value_ty}"),
                            *pos,
                        );
                    }
                    let slot = self.new_slot(*ty, false);
                    self.declare_var(name, slot, *pos)?;
                    self.write_var(slot.index, self.b.current_block(), value);
                }
                Ok(())
            }
            Stmt::Assign { target, value, pos } => self.lower_assign(target, value, *pos),
            Stmt::If { cond, then_body, else_body, pos } => {
                let (c, cty) = self.lower_expr(cond)?;
                if cty != Type::Bool {
                    return err("if condition must be bool", *pos);
                }
                let then_bb = self.new_block("then");
                let else_bb = self.new_block("else");
                let merge_bb = self.new_block("merge");
                self.emit_br(c, then_bb, else_bb);
                self.seal(then_bb);
                self.seal(else_bb);

                self.b.switch_to(then_bb);
                self.reachable = true;
                self.lower_block(then_body)?;
                let then_reaches = self.reachable;
                if then_reaches {
                    self.emit_jump(merge_bb);
                }

                self.b.switch_to(else_bb);
                self.reachable = true;
                self.lower_block(else_body)?;
                let else_reaches = self.reachable;
                if else_reaches {
                    self.emit_jump(merge_bb);
                }

                self.seal(merge_bb);
                self.b.switch_to(merge_bb);
                self.reachable = then_reaches || else_reaches;
                Ok(())
            }
            Stmt::While { cond, body, pos } => {
                let header = self.new_block("while_header");
                let body_bb = self.new_block("while_body");
                let exit = self.new_block("while_exit");
                self.emit_jump(header);

                self.b.switch_to(header);
                let (c, cty) = self.lower_expr(cond)?;
                if cty != Type::Bool {
                    return err("while condition must be bool", *pos);
                }
                self.emit_br(c, body_bb, exit);
                self.seal(body_bb);

                self.loops.push(LoopCtx { continue_target: header, break_target: exit });
                self.b.switch_to(body_bb);
                self.reachable = true;
                self.lower_block(body)?;
                if self.reachable {
                    self.emit_jump(header);
                }
                self.loops.pop();

                self.seal(header);
                self.seal(exit);
                self.b.switch_to(exit);
                self.reachable = true;
                Ok(())
            }
            Stmt::For { init, cond, step, body, pos } => {
                self.push_scope(); // scope for the induction variable
                if let Some(init) = init {
                    self.lower_stmt(init)?;
                }
                let header = self.new_block("for_header");
                let body_bb = self.new_block("for_body");
                let step_bb = self.new_block("for_step");
                let exit = self.new_block("for_exit");
                self.emit_jump(header);

                self.b.switch_to(header);
                let (c, cty) = self.lower_expr(cond)?;
                if cty != Type::Bool {
                    self.pop_scope();
                    return err("for condition must be bool", *pos);
                }
                self.emit_br(c, body_bb, exit);
                self.seal(body_bb);

                self.loops.push(LoopCtx { continue_target: step_bb, break_target: exit });
                self.b.switch_to(body_bb);
                self.reachable = true;
                self.lower_block(body)?;
                if self.reachable {
                    self.emit_jump(step_bb);
                }
                self.loops.pop();

                self.seal(step_bb);
                self.b.switch_to(step_bb);
                self.reachable = true;
                if let Some(step) = step {
                    self.lower_stmt(step)?;
                }
                self.emit_jump(header);
                self.seal(header);
                self.seal(exit);
                self.b.switch_to(exit);
                self.reachable = true;
                self.pop_scope();
                Ok(())
            }
            Stmt::Return { value, pos } => {
                match (value, self.ret) {
                    (None, None) => self.b.ret(None),
                    (Some(e), Some(ret_ty)) => {
                        let (v, vty) = self.lower_expr(e)?;
                        if vty != ret_ty {
                            return err(format!("returning {vty}, function returns {ret_ty}"), *pos);
                        }
                        self.b.ret(Some(v));
                    }
                    (None, Some(_)) => return err("missing return value", *pos),
                    (Some(_), None) => return err("void function returns a value", *pos),
                }
                self.reachable = false;
                Ok(())
            }
            Stmt::Break { pos } => {
                let Some(ctx) = self.loops.last() else {
                    return err("`break` outside a loop", *pos);
                };
                let target = ctx.break_target;
                self.emit_jump(target);
                self.reachable = false;
                Ok(())
            }
            Stmt::Continue { pos } => {
                let Some(ctx) = self.loops.last() else {
                    return err("`continue` outside a loop", *pos);
                };
                let target = ctx.continue_target;
                self.emit_jump(target);
                self.reachable = false;
                Ok(())
            }
            Stmt::Lock { mutex, pos } => {
                let Some(&m) = self.ctx.mutexes.get(mutex) else {
                    return err(format!("unknown mutex `{mutex}`"), *pos);
                };
                self.b.mutex_lock(m);
                Ok(())
            }
            Stmt::Unlock { mutex, pos } => {
                let Some(&m) = self.ctx.mutexes.get(mutex) else {
                    return err(format!("unknown mutex `{mutex}`"), *pos);
                };
                self.b.mutex_unlock(m);
                Ok(())
            }
            Stmt::BarrierWait { barrier, pos } => {
                let Some(&bar) = self.ctx.barriers.get(barrier) else {
                    return err(format!("unknown barrier `{barrier}`"), *pos);
                };
                self.b.barrier(bar);
                Ok(())
            }
            Stmt::Output { value, .. } => {
                let (v, _) = self.lower_expr(value)?;
                self.b.output(v);
                Ok(())
            }
            Stmt::Trap { .. } => {
                self.b.trap();
                self.reachable = false;
                Ok(())
            }
            Stmt::ExprStmt { expr, .. } => {
                self.lower_expr_allow_void(expr)?;
                Ok(())
            }
        }
    }

    fn lower_assign(&mut self, target: &LValue, value: &Expr, pos: Pos) -> Result<(), LowerError> {
        match target {
            LValue::Name(name) => {
                if let Some(slot) = self.lookup_var(name) {
                    if slot.is_array {
                        return err(format!("cannot assign to array `{name}` as a whole"), pos);
                    }
                    let (v, vty) = self.lower_expr(value)?;
                    if vty != slot.ty {
                        return err(format!("assigning {vty} to `{name}` of type {}", slot.ty), pos);
                    }
                    self.write_var(slot.index, self.b.current_block(), v);
                    Ok(())
                } else if let Some(&(gid, gty, is_array)) = self.ctx.globals.get(name) {
                    if is_array {
                        return err(format!("global array `{name}` needs an index"), pos);
                    }
                    let (v, vty) = self.lower_expr(value)?;
                    if vty != gty {
                        return err(format!("assigning {vty} to global `{name}` of type {gty}"), pos);
                    }
                    self.b.store_global(gid, v);
                    Ok(())
                } else {
                    err(format!("unknown variable `{name}`"), pos)
                }
            }
            LValue::Index(name, index) => {
                let (idx, idx_ty) = self.lower_expr(index)?;
                if idx_ty != Type::I64 {
                    return err("array index must be an int", pos);
                }
                if let Some(slot) = self.lookup_var(name) {
                    if !slot.is_array {
                        return err(format!("`{name}` is not an array"), pos);
                    }
                    let (v, vty) = self.lower_expr(value)?;
                    if vty != slot.ty {
                        return err(format!("storing {vty} into `{name}` of element type {}", slot.ty), pos);
                    }
                    let base = self.read_var(slot.index, self.b.current_block());
                    let addr = self.b.gep(base, idx);
                    self.b.store(addr, v);
                    Ok(())
                } else if let Some(&(gid, gty, _)) = self.ctx.globals.get(name) {
                    let (v, vty) = self.lower_expr(value)?;
                    if vty != gty {
                        return err(format!("storing {vty} into `{name}` of element type {gty}"), pos);
                    }
                    self.b.store_index(gid, idx, v);
                    Ok(())
                } else {
                    err(format!("unknown array `{name}`"), pos)
                }
            }
        }
    }

    // ----- expressions -----

    fn const_zero(&mut self, ty: Type) -> ValueId {
        match ty {
            Type::I64 => self.b.const_i64(0),
            Type::F64 => self.b.const_f64(0.0),
            Type::Bool => self.b.const_bool(false),
            Type::Ptr => {
                let z = self.b.const_i64(0);
                self.b.alloca(z)
            }
        }
    }

    fn lower_expr(&mut self, e: &Expr) -> Result<(ValueId, Type), LowerError> {
        match self.lower_expr_allow_void(e)? {
            Some(v) => Ok(v),
            None => err("void value used in an expression", e.pos()),
        }
    }

    fn lower_expr_allow_void(&mut self, e: &Expr) -> Result<Option<(ValueId, Type)>, LowerError> {
        let result = match e {
            Expr::Literal(lit, _) => match lit {
                Literal::Int(v) => (self.b.const_i64(*v), Type::I64),
                Literal::Float(v) => (self.b.const_f64(*v), Type::F64),
                Literal::Bool(v) => (self.b.const_bool(*v), Type::Bool),
            },
            Expr::Name(name, pos) => {
                if let Some(slot) = self.lookup_var(name) {
                    let v = self.read_var(slot.index, self.b.current_block());
                    let ty = if slot.is_array { Type::Ptr } else { slot.ty };
                    (v, ty)
                } else if let Some(&(gid, gty, is_array)) = self.ctx.globals.get(name) {
                    if is_array {
                        return err(format!("global array `{name}` needs an index"), *pos);
                    }
                    let addr = self.b.global_addr(gid);
                    (self.b.load(addr, gty), gty)
                } else {
                    return err(format!("unknown variable `{name}`"), *pos);
                }
            }
            Expr::Index(name, index, pos) => {
                let (idx, idx_ty) = self.lower_expr(index)?;
                if idx_ty != Type::I64 {
                    return err("array index must be an int", *pos);
                }
                if let Some(slot) = self.lookup_var(name) {
                    if !slot.is_array {
                        return err(format!("`{name}` is not an array"), *pos);
                    }
                    let base = self.read_var(slot.index, self.b.current_block());
                    let addr = self.b.gep(base, idx);
                    (self.b.load(addr, slot.ty), slot.ty)
                } else if let Some(&(gid, gty, _)) = self.ctx.globals.get(name) {
                    let base = self.b.global_addr(gid);
                    let addr = self.b.gep(base, idx);
                    (self.b.load(addr, gty), gty)
                } else {
                    return err(format!("unknown array `{name}`"), *pos);
                }
            }
            Expr::Bin(op, lhs, rhs, pos) => {
                let (l, lty) = self.lower_expr(lhs)?;
                let (r, rty) = self.lower_expr(rhs)?;
                if lty != rty {
                    return err(format!("operands of `{}` have types {lty} and {rty}", op.mnemonic()), *pos);
                }
                let numeric = matches!(lty, Type::I64 | Type::F64);
                let ok = match op {
                    BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem => numeric,
                    BinOp::Min | BinOp::Max => numeric,
                    BinOp::And | BinOp::Or | BinOp::Xor => matches!(lty, Type::I64 | Type::Bool),
                    BinOp::Shl | BinOp::Shr => lty == Type::I64,
                };
                if !ok {
                    return err(format!("`{}` cannot be applied to {lty}", op.mnemonic()), *pos);
                }
                (self.b.bin(*op, l, r), lty)
            }
            Expr::Cmp(op, lhs, rhs, pos) => {
                let (l, lty) = self.lower_expr(lhs)?;
                let (r, rty) = self.lower_expr(rhs)?;
                if lty != rty {
                    return err(format!("comparing {lty} with {rty}"), *pos);
                }
                (self.b.cmp(*op, l, r), Type::Bool)
            }
            Expr::LogicalAnd(lhs, rhs, pos) | Expr::LogicalOr(lhs, rhs, pos) => {
                let is_and = matches!(e, Expr::LogicalAnd(..));
                let (l, lty) = self.lower_expr(lhs)?;
                if lty != Type::Bool {
                    return err("logical operand must be bool", *pos);
                }
                let lhs_block = self.b.current_block();
                let rhs_bb = self.new_block(if is_and { "and_rhs" } else { "or_rhs" });
                let merge = self.new_block("logic_merge");
                if is_and {
                    self.emit_br(l, rhs_bb, merge);
                } else {
                    self.emit_br(l, merge, rhs_bb);
                }
                self.seal(rhs_bb);
                self.b.switch_to(rhs_bb);
                let (r, rty) = self.lower_expr(rhs)?;
                if rty != Type::Bool {
                    return err("logical operand must be bool", *pos);
                }
                let rhs_end = self.b.current_block();
                self.emit_jump(merge);
                self.seal(merge);
                self.b.switch_to(merge);
                let phi = self.b.phi(Type::Bool, vec![(lhs_block, l), (rhs_end, r)]);
                (phi, Type::Bool)
            }
            Expr::Un(op, operand, pos) => {
                let (v, vty) = self.lower_expr(operand)?;
                let ok = match op {
                    UnOp::Neg | UnOp::Abs => matches!(vty, Type::I64 | Type::F64),
                    UnOp::Not => matches!(vty, Type::I64 | Type::Bool),
                    UnOp::IntToFloat => vty == Type::I64,
                    UnOp::FloatToInt | UnOp::Sqrt => vty == Type::F64,
                };
                if !ok {
                    return err(format!("`{}` cannot be applied to {vty}", op.mnemonic()), *pos);
                }
                let result_ty = match op {
                    UnOp::IntToFloat | UnOp::Sqrt => Type::F64,
                    UnOp::FloatToInt => Type::I64,
                    _ => vty,
                };
                let r = self.b.un(*op, v);
                debug_assert_eq!(self.b.func().value_type(r), result_ty);
                (r, result_ty)
            }
            Expr::Call(name, args, pos) => {
                let Some((fid, params, ret)) = self.ctx.sigs.get(name).cloned() else {
                    return err(format!("unknown function `{name}`"), *pos);
                };
                let vals = self.lower_args(name, args, &params, *pos)?;
                let site = self.alloc_site();
                let result = self.b.emit(Op::Call { func: fid, args: vals, site }, ret);
                return Ok(result.map(|v| (v, ret.expect("result implies return type"))));
            }
            Expr::CallIndirect(table, selector, args, pos) => {
                let Some(&tid) = self.ctx.tables.get(table) else {
                    return err(format!("unknown table `{table}`"), *pos);
                };
                let (sel, sel_ty) = self.lower_expr(selector)?;
                if sel_ty != Type::I64 {
                    return err("table selector must be an int", *pos);
                }
                // Signature shared by the table's callees (the verifier
                // checks that the whole table agrees).
                let (params, ret) = self.ctx.table_sigs[table.as_str()].clone();
                let vals = self.lower_args(table, args, &params, *pos)?;
                let site = self.alloc_site();
                let result = self
                    .b
                    .emit(Op::CallIndirect { table: tid, selector: sel, args: vals, site }, ret);
                return Ok(result.map(|v| (v, ret.expect("result implies return type"))));
            }
            Expr::ThreadId(_) => (self.b.thread_id(), Type::I64),
            Expr::NumThreads(_) => (self.b.num_threads(), Type::I64),
            Expr::Rand(bound, pos) => {
                let (v, vty) = self.lower_expr(bound)?;
                if vty != Type::I64 {
                    return err("rand bound must be an int", *pos);
                }
                (self.b.rand(v), Type::I64)
            }
            Expr::FetchAdd(global, delta, pos) => {
                let Some(&(gid, gty, is_array)) = self.ctx.globals.get(global) else {
                    return err(format!("unknown global `{global}`"), *pos);
                };
                if gty != Type::I64 || is_array {
                    return err("fetch_add target must be a scalar int global", *pos);
                }
                let (d, dty) = self.lower_expr(delta)?;
                if dty != Type::I64 {
                    return err("fetch_add delta must be an int", *pos);
                }
                (self.b.atomic_fetch_add(gid, d), Type::I64)
            }
        };
        Ok(Some(result))
    }

    fn lower_args(
        &mut self,
        name: &str,
        args: &[Expr],
        params: &[Type],
        pos: Pos,
    ) -> Result<Vec<ValueId>, LowerError> {
        if args.len() != params.len() {
            return err(
                format!("`{name}` expects {} argument(s), got {}", params.len(), args.len()),
                pos,
            );
        }
        let mut vals = Vec::with_capacity(args.len());
        for (arg, expected) in args.iter().zip(params) {
            let (v, vty) = self.lower_expr(arg)?;
            if vty != *expected {
                return err(format!("argument of type {vty} where {expected} expected"), arg.pos());
            }
            vals.push(v);
        }
        Ok(vals)
    }

    fn alloc_site(&mut self) -> crate::ids::CallSiteId {
        let site = crate::ids::CallSiteId(*self.next_call_site);
        *self.next_call_site += 1;
        site
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::Cfg;
    use crate::dom::DomTree;
    use crate::loops::LoopForest;
    use crate::print::ModulePrinter;

    fn compile_ok(src: &str) -> Module {
        match compile(src) {
            Ok(m) => m,
            Err(e) => panic!("compile failed: {e}"),
        }
    }

    #[test]
    fn lowers_empty_spmd_function() {
        let m = compile_ok("@spmd func slave() { }");
        assert_eq!(m.spmd_entry, Some(FuncId(0)));
        assert_eq!(m.funcs[0].blocks.len(), 1);
    }

    #[test]
    fn lowers_figure1_style_program() {
        let m = compile_ok(
            r#"
            module figure1;
            tid_counter int id = 0;
            shared int im = 16;
            int gp[64];
            mutex l;
            @init func main() {
                for (var i: int = 0; i < 64; i = i + 1) { gp[i] = rand(100); }
            }
            @spmd func slave() {
                lock(l);
                var procid: int = fetch_add(id, 1);
                unlock(l);
                // Branch 1: threadID
                if (procid == 0) { output(procid); }
                // Branch 2: shared
                var private: int = 0;
                for (var i: int = 0; i <= im - 1; i = i + 1) {
                    // Branch 3: none
                    if (gp[procid] > im - 1) {
                        private = 1;
                    } else {
                        private = 0 - 1;
                    }
                    // Branch 4: partial
                    if (private > 0) { output(private); }
                }
            }
            "#,
        );
        assert_eq!(m.name, "figure1");
        assert!(m.init.is_some());
        assert!(m.spmd_entry.is_some());
        assert!(m.globals.iter().find(|g| g.name == "id").expect("global `id`").tid_counter);
        // slave has 4 conditional branches from the ifs plus 1 loop branch.
        let slave = m.func(m.func_by_name("slave").unwrap());
        assert_eq!(slave.num_branches(), 4);
    }

    #[test]
    fn loop_phi_has_two_incomings() {
        let m = compile_ok(
            r#"
            shared int n = 10;
            @spmd func f() {
                var acc: int = 0;
                for (var i: int = 0; i < n; i = i + 1) { acc = acc + i; }
                output(acc);
            }
            "#,
        );
        let f = &m.funcs[0];
        let cfg = Cfg::new(f);
        let dom = DomTree::new(&cfg, f.entry());
        let loops = LoopForest::new(&cfg, &dom);
        assert_eq!(loops.loops().len(), 1);
        // The loop header holds phis for i and acc, each with 2 incomings.
        let header = loops.loops()[0].header;
        let phis: Vec<_> = f.block(header).phis().collect();
        assert_eq!(phis.len(), 2, "{}", ModulePrinter(&m));
        for phi in phis {
            assert_eq!(phi.op.phi_incomings().unwrap().len(), 2);
        }
    }

    #[test]
    fn if_else_merges_with_phi() {
        let m = compile_ok(
            r#"
            @spmd func f() {
                var x: int = 0;
                if (threadid() == 0) { x = 1; } else { x = 2; }
                output(x);
            }
            "#,
        );
        let f = &m.funcs[0];
        let has_phi = f.blocks.iter().any(|b| b.phis().next().is_some());
        assert!(has_phi, "{}", ModulePrinter(&m));
    }

    #[test]
    fn unmodified_variable_through_if_needs_no_merge_value_change() {
        // x is not assigned in either arm: reading it after the if must see
        // the original value (possibly through a trivial phi).
        let m = compile_ok(
            r#"
            @spmd func f() {
                var x: int = 7;
                if (threadid() == 0) { output(1); }
                output(x);
            }
            "#,
        );
        assert_eq!(m.funcs[0].num_branches(), 1);
    }

    #[test]
    fn while_with_break_and_continue() {
        let m = compile_ok(
            r#"
            @spmd func f() {
                var i: int = 0;
                while (true) {
                    i = i + 1;
                    if (i > 100) { break; }
                    if (i - i / 2 * 2 == 0) { continue; }
                    output(i);
                }
            }
            "#,
        );
        assert!(m.funcs[0].num_branches() >= 3);
    }

    #[test]
    fn nested_loops_lower_and_verify() {
        let m = compile_ok(
            r#"
            shared int n = 4;
            @spmd func f() {
                for (var i: int = 0; i < n; i = i + 1) {
                    for (var j: int = 0; j < n; j = j + 1) {
                        for (var k: int = 0; k < n; k = k + 1) {
                            output(i * n * n + j * n + k);
                        }
                    }
                }
            }
            "#,
        );
        let f = &m.funcs[0];
        let cfg = Cfg::new(f);
        let dom = DomTree::new(&cfg, f.entry());
        let loops = LoopForest::new(&cfg, &dom);
        assert_eq!(loops.loops().len(), 3);
        let max_depth = loops.loops().iter().map(|l| l.depth).max().unwrap();
        assert_eq!(max_depth, 3);
    }

    #[test]
    fn short_circuit_lowering_produces_branches() {
        let m = compile_ok(
            r#"
            @spmd func f() {
                var a: int = threadid();
                if (a > 0 && a < 8) { output(a); }
                if (a == 0 || a == 7) { output(a); }
            }
            "#,
        );
        // each && / || introduces an extra conditional branch
        assert!(m.funcs[0].num_branches() >= 4);
    }

    #[test]
    fn local_arrays_allocate_and_index() {
        let m = compile_ok(
            r#"
            @spmd func f() {
                var a: int[8];
                for (var i: int = 0; i < 8; i = i + 1) { a[i] = i * i; }
                output(a[3]);
            }
            "#,
        );
        let f = &m.funcs[0];
        let has_alloca =
            f.blocks.iter().flat_map(|b| &b.insts).any(|i| matches!(i.op, Op::Alloca { .. }));
        assert!(has_alloca);
    }

    #[test]
    fn calls_and_returns() {
        let m = compile_ok(
            r#"
            func square(x: int) -> int { return x * x; }
            @spmd func f() { output(square(5)); }
            "#,
        );
        assert_eq!(m.num_call_sites, 1);
    }

    #[test]
    fn multiple_call_sites_get_distinct_ids() {
        let m = compile_ok(
            r#"
            func foo(arg: int) {
                for (var i: int = 0; i < 5; i = i + 1) {
                    if (i < arg) { output(i); }
                }
            }
            shared bool test = true;
            @spmd func slave() {
                foo(1);
                if (test) { foo(2); }
            }
            "#,
        );
        assert_eq!(m.num_call_sites, 2);
    }

    #[test]
    fn indirect_calls_through_table() {
        let m = compile_ok(
            r#"
            table ops = { inc, dec };
            func inc(x: int) -> int { return x + 1; }
            func dec(x: int) -> int { return x - 1; }
            @spmd func f() {
                var t: int = threadid();
                output(ops[t - t / 2 * 2](t));
            }
            "#,
        );
        assert_eq!(m.tables.len(), 1);
        assert_eq!(m.tables[0].funcs.len(), 2);
    }

    #[test]
    fn early_return_in_branch() {
        let m = compile_ok(
            r#"
            func f(x: int) -> int {
                if (x > 0) { return 1; }
                return 0;
            }
            @spmd func g() { output(f(threadid())); }
            "#,
        );
        verify_module(&m).unwrap();
    }

    #[test]
    fn both_arms_return_makes_merge_unreachable() {
        let m = compile_ok(
            r#"
            func f(x: int) -> int {
                if (x > 0) { return 1; } else { return 0; }
            }
            @spmd func g() { output(f(threadid())); }
            "#,
        );
        verify_module(&m).unwrap();
    }

    #[test]
    fn rejects_type_mismatch() {
        let e = compile("@spmd func f() { var x: int = 1.5; }").unwrap_err();
        assert!(matches!(e, FrontendError::Lower(_)), "{e}");
    }

    #[test]
    fn rejects_break_outside_loop() {
        let e = compile("@spmd func f() { break; }").unwrap_err();
        let FrontendError::Lower(le) = e else { panic!("{e}") };
        assert!(le.message.contains("break"));
    }

    #[test]
    fn rejects_unknown_variable() {
        let e = compile("@spmd func f() { output(nope); }").unwrap_err();
        let FrontendError::Lower(le) = e else { panic!("{e}") };
        assert!(le.message.contains("unknown variable"));
    }

    #[test]
    fn rejects_missing_return_value_path() {
        let e = compile("func f() -> int { if (true) { return 1; } }").unwrap_err();
        let FrontendError::Lower(le) = e else { panic!("{e}") };
        assert!(le.message.contains("fall off"), "{le}");
    }

    #[test]
    fn rejects_two_spmd_functions() {
        let e = compile("@spmd func a() {} @spmd func b() {}").unwrap_err();
        let FrontendError::Lower(le) = e else { panic!("{e}") };
        assert!(le.message.contains("multiple"), "{le}");
    }

    #[test]
    fn rejects_spmd_with_params() {
        let e = compile("@spmd func a(x: int) {}").unwrap_err();
        let FrontendError::Lower(le) = e else { panic!("{e}") };
        assert!(le.message.contains("role"), "{le}");
    }

    #[test]
    fn rejects_non_bool_condition() {
        let e = compile("@spmd func f() { if (1) { } }").unwrap_err();
        assert!(matches!(e, FrontendError::Lower(_)));
    }

    #[test]
    fn rejects_void_in_expression() {
        let e = compile(
            "func v() { } @spmd func f() { var x: int = v(); }",
        )
        .unwrap_err();
        let FrontendError::Lower(le) = e else { panic!("{e}") };
        assert!(le.message.contains("void"), "{le}");
    }

    #[test]
    fn rejects_shadowing_in_same_scope() {
        let e = compile("@spmd func f() { var x: int = 1; var x: int = 2; }").unwrap_err();
        let FrontendError::Lower(le) = e else { panic!("{e}") };
        assert!(le.message.contains("already declared"), "{le}");
    }

    #[test]
    fn allows_shadowing_in_inner_scope() {
        compile_ok("@spmd func f() { var x: int = 1; if (true) { var x: int = 2; output(x); } output(x); }");
    }

    #[test]
    fn variable_modified_in_loop_body_flows_out() {
        let m = compile_ok(
            r#"
            shared int n = 5;
            @spmd func f() {
                var sum: int = 0;
                var i: int = 0;
                while (i < n) {
                    sum = sum + i;
                    i = i + 1;
                }
                output(sum);
            }
            "#,
        );
        verify_module(&m).unwrap();
    }

    #[test]
    fn global_reads_and_writes_lower_to_memory_ops() {
        let m = compile_ok(
            r#"
            shared int n = 2;
            int counter = 0;
            @spmd func f() { counter = counter + n; }
            "#,
        );
        let f = &m.funcs[0];
        let loads =
            f.blocks.iter().flat_map(|b| &b.insts).filter(|i| matches!(i.op, Op::Load { .. })).count();
        let stores =
            f.blocks.iter().flat_map(|b| &b.insts).filter(|i| matches!(i.op, Op::Store { .. })).count();
        assert_eq!(loads, 2);
        assert_eq!(stores, 1);
    }
}
