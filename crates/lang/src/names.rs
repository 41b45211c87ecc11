//! One table of a spec's task names, shared by everything that
//! resolves one: the linter's error checks, its analysis IR and the
//! compiler.
//!
//! One hash map from each task-group name to its first declaration
//! resolves every `after` entry once, to that declaration or to `None`
//! when no task declares the name. Later declarations of a taken name
//! are listed as duplicates, and the last declaration of each name is
//! kept beside the first, so a consumer that resolves duplicates to the
//! last declaration reads it from the same table.
//!
//! The map hashes with std's randomly seeded hasher: names arrive in
//! `wrm serve` request bodies, so a fixed hash would let a client pick
//! names that collide.

use crate::ast::WorkflowAst;
use std::collections::HashMap;

/// The task names of one [`WorkflowAst`], resolved once.
#[derive(Debug, Clone)]
pub struct TaskNames {
    /// For the first declaration of a name, the index of its last.
    last: Vec<usize>,
    /// Declarations of an already taken name, in declaration order.
    duplicates: Vec<usize>,
    /// Every `after` entry in AST order, resolved to the first
    /// declaration of its name.
    after: Vec<Option<usize>>,
    /// Task `i`'s entries are `after[after_start[i]..after_start[i + 1]]`.
    after_start: Vec<usize>,
}

impl TaskNames {
    /// Builds the table of `ast`'s task names.
    pub fn new(ast: &WorkflowAst) -> Self {
        let n = ast.tasks.len();
        let mut first = HashMap::with_capacity(n);
        let mut last: Vec<usize> = (0..n).collect();
        let mut duplicates = Vec::new();
        for (i, t) in ast.tasks.iter().enumerate() {
            let f = *first.entry(t.name.as_str()).or_insert(i);
            if f != i {
                last[f] = i;
                duplicates.push(i);
            }
        }
        let mut after = Vec::with_capacity(ast.tasks.iter().map(|t| t.after.len()).sum());
        let mut after_start = Vec::with_capacity(n + 1);
        for t in &ast.tasks {
            after_start.push(after.len());
            after.extend(t.after.iter().map(|a| first.get(a.name.as_str()).copied()));
        }
        after_start.push(after.len());
        Self {
            last,
            duplicates,
            after,
            after_start,
        }
    }

    /// Task `task`'s `after` entries, in source order: each the index of
    /// the first declaration of the name it references, or `None` when
    /// no task declares that name.
    pub fn after(&self, task: usize) -> &[Option<usize>] {
        &self.after[self.after_start[task]..self.after_start[task + 1]]
    }

    /// The last declaration of the name whose first declaration is
    /// `first` (`first` itself unless the name is declared again).
    pub fn last(&self, first: usize) -> usize {
        self.last[first]
    }

    /// Declarations of a name an earlier declaration already took, in
    /// declaration order.
    pub fn duplicates(&self) -> &[usize] {
        &self.duplicates
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolves_afters_to_first_declarations_and_lists_duplicates() {
        let ast = crate::parse(
            "workflow w { task a[2] { } task b { after a after ghost after b } \
             task a { after a[1] } task c { } task a { } }",
        )
        .unwrap();
        let names = TaskNames::new(&ast);
        assert_eq!(names.after(0), &[] as &[Option<usize>]);
        assert_eq!(names.after(1), &[Some(0), None, Some(1)]);
        assert_eq!(names.after(2), &[Some(0)]);
        assert_eq!(names.duplicates(), &[2, 4]);
        assert_eq!((names.last(0), names.last(1), names.last(3)), (4, 1, 3));
    }
}
