//! Functions and basic blocks.

use crate::ids::{BlockId, ValueId};
use crate::inst::{Inst, Op};
use crate::value::Type;

/// A basic block: a straight-line sequence of instructions ending in a
/// terminator. Phi nodes, if any, must come first.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Block {
    /// Instructions in execution order. The last one must be a terminator
    /// once the function is complete (the verifier enforces this).
    pub insts: Vec<Inst>,
    /// Optional human-readable label for diagnostics and printing.
    pub name: Option<String>,
}

impl Block {
    /// The terminator instruction, if the block has one.
    pub fn terminator(&self) -> Option<&Inst> {
        self.insts.last().filter(|inst| inst.op.is_terminator())
    }

    /// Iterates over the phi instructions at the head of the block.
    pub fn phis(&self) -> impl Iterator<Item = &Inst> {
        self.insts.iter().take_while(|inst| inst.op.is_phi())
    }
}

/// Where a value was defined, for diagnostics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)] // variant fields are self-describing; variants are documented
pub enum ValueDef {
    /// The value is the `n`-th function parameter.
    Param(usize),
    /// The value is defined by the `inst_index`-th instruction of `block`.
    Inst { block: BlockId, inst_index: usize },
}

/// A function: parameters, a return type, and a CFG of basic blocks.
#[derive(Clone, Debug, PartialEq)]
pub struct Function {
    /// Function name (unique within the module).
    pub name: String,
    /// Parameter types. Parameter `i` is SSA value `ValueId(i)`.
    pub params: Vec<Type>,
    /// Return type, or `None` for a void function.
    pub ret: Option<Type>,
    /// Basic blocks. `BlockId(0)` is the entry block.
    pub blocks: Vec<Block>,
    /// Definition site of every SSA value, indexed by `ValueId`.
    pub defs: Vec<ValueDef>,
    /// Type of every SSA value, indexed by `ValueId`.
    pub value_types: Vec<Type>,
}

impl Function {
    /// Creates an empty function with the given signature. The entry block
    /// is created; parameters become values `0..params.len()`.
    pub fn new(name: impl Into<String>, params: Vec<Type>, ret: Option<Type>) -> Self {
        let defs = (0..params.len()).map(ValueDef::Param).collect();
        let value_types = params.clone();
        Function {
            name: name.into(),
            params,
            ret,
            blocks: vec![Block::default()],
            defs,
            value_types,
        }
    }

    /// The entry block.
    pub fn entry(&self) -> BlockId {
        BlockId(0)
    }

    /// The block with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.index()]
    }

    /// Mutable access to a block.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn block_mut(&mut self, id: BlockId) -> &mut Block {
        &mut self.blocks[id.index()]
    }

    /// Iterates over `(BlockId, &Block)` pairs in id order.
    pub fn iter_blocks(&self) -> impl Iterator<Item = (BlockId, &Block)> {
        self.blocks.iter().enumerate().map(|(i, b)| (BlockId::from_index(i), b))
    }

    /// The number of SSA values defined in this function.
    pub fn num_values(&self) -> usize {
        self.defs.len()
    }

    /// The type of an SSA value.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn value_type(&self, value: ValueId) -> Type {
        self.value_types[value.index()]
    }

    /// The instruction that defines `value`, or `None` for parameters.
    pub fn def_inst(&self, value: ValueId) -> Option<&Inst> {
        match self.defs.get(value.index())? {
            ValueDef::Param(_) => None,
            ValueDef::Inst { block, inst_index } => {
                self.blocks.get(block.index())?.insts.get(*inst_index)
            }
        }
    }

    /// Allocates a fresh SSA value of the given type (used by the builder).
    pub(crate) fn new_value(&mut self, ty: Type, def: ValueDef) -> ValueId {
        let id = ValueId::from_index(self.defs.len());
        self.defs.push(def);
        self.value_types.push(ty);
        id
    }

    /// Appends a new empty block and returns its id.
    pub fn add_block(&mut self, name: Option<String>) -> BlockId {
        let id = BlockId::from_index(self.blocks.len());
        self.blocks.push(Block { insts: Vec::new(), name });
        id
    }

    /// Total number of instructions across all blocks.
    pub fn num_insts(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len()).sum()
    }

    /// Number of conditional branch instructions in this function.
    pub fn num_branches(&self) -> usize {
        self.blocks
            .iter()
            .flat_map(|b| b.insts.iter())
            .filter(|inst| matches!(inst.op, Op::Br { .. }))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Op;
    use crate::value::Val;

    #[test]
    fn new_function_has_entry_and_params() {
        let f = Function::new("f", vec![Type::I64, Type::Bool], Some(Type::I64));
        assert_eq!(f.entry(), BlockId(0));
        assert_eq!(f.blocks.len(), 1);
        assert_eq!(f.num_values(), 2);
        assert_eq!(f.value_type(ValueId(0)), Type::I64);
        assert_eq!(f.value_type(ValueId(1)), Type::Bool);
        assert_eq!(f.defs[0], ValueDef::Param(0));
    }

    #[test]
    fn add_block_returns_sequential_ids() {
        let mut f = Function::new("f", vec![], None);
        assert_eq!(f.add_block(None), BlockId(1));
        assert_eq!(f.add_block(Some("loop".into())), BlockId(2));
        assert_eq!(f.block(BlockId(2)).name.as_deref(), Some("loop"));
    }

    #[test]
    fn def_inst_for_params_is_none() {
        let f = Function::new("f", vec![Type::I64], None);
        assert!(f.def_inst(ValueId(0)).is_none());
    }

    #[test]
    fn counts_insts_and_branches() {
        let mut f = Function::new("f", vec![], None);
        let bb1 = f.add_block(None);
        f.block_mut(BlockId(0)).insts.push(Inst {
            op: Op::Const(Val::Bool(true)),
            result: Some(ValueId(0)),
            ty: Some(Type::Bool),
        });
        f.defs.push(ValueDef::Inst { block: BlockId(0), inst_index: 0 });
        f.value_types.push(Type::Bool);
        f.block_mut(BlockId(0)).insts.push(Inst {
            op: Op::Br { cond: ValueId(0), then_bb: bb1, else_bb: bb1 },
            result: None,
            ty: None,
        });
        f.block_mut(bb1).insts.push(Inst { op: Op::Ret(None), result: None, ty: None });
        assert_eq!(f.num_insts(), 3);
        assert_eq!(f.num_branches(), 1);
        assert!(f.block(BlockId(0)).terminator().is_some());
        assert!(f.def_inst(ValueId(0)).is_some());
    }
}
