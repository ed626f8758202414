//! Property-based tests for the parameter-server substrate.

use proptest::prelude::*;
use ps2_ps::{
    deploy_ps, ElemOp, InitKind, MatrixHandle, PartitionPlan, Partitioning, PsConfig, PsMaster,
};
use ps2_simnet::{SimBuilder, SimCtx};

fn with_ps<T, F>(n: usize, seed: u64, f: F) -> T
where
    T: Send + 'static,
    F: FnOnce(&mut SimCtx, &mut PsMaster) -> T + Send + 'static,
{
    let mut sim = SimBuilder::new().seed(seed).build();
    let (servers, storage) = deploy_ps(&mut sim, n, 500e6);
    let out = sim.spawn_collect("coordinator", move |ctx| {
        let mut master = PsMaster::new(servers, storage, PsConfig::default());
        f(ctx, &mut master)
    });
    sim.run().unwrap();
    out.take()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Column plans cover every column exactly once, for any (dim, slots).
    #[test]
    fn plans_partition_the_dimension(dim in 1u64..100_000, slots in 1usize..40, rot in 0usize..40) {
        let plan = PartitionPlan::new(dim, 1, slots, Partitioning::ColumnRotated(rot));
        let ranges = plan.column_ranges();
        let covered: u64 = ranges.iter().map(|&(_, lo, hi)| hi - lo).sum();
        prop_assert_eq!(covered, dim);
        for w in ranges.windows(2) {
            prop_assert_eq!(w[0].2, w[1].1);
        }
        // col_owner agrees with the ranges at the boundaries.
        for &(slot, lo, hi) in &ranges {
            prop_assert_eq!(plan.col_owner(lo), slot);
            prop_assert_eq!(plan.col_owner(hi - 1), slot);
        }
    }

    /// Push-then-pull is the identity for arbitrary sparse updates, on any
    /// cluster size.
    #[test]
    fn sparse_push_pull_identity(
        servers in 1usize..7,
        dim in 1u64..2_000,
        updates in prop::collection::btree_map(0u64..2_000, -100.0f64..100.0, 0..40)
    ) {
        let updates: Vec<(u64, f64)> = updates.into_iter()
            .filter(|&(j, _)| j < dim)
            .collect();
        let got = with_ps(servers, 1, move |ctx, m| {
            let h = m.create_matrix(ctx, dim, 1, Partitioning::Column, InitKind::Zero);
            h.push_sparse(ctx, 0, &updates);
            let full = h.pull_row(ctx, 0);
            (updates, full)
        });
        let (updates, full) = got;
        let mut expect = vec![0.0; dim as usize];
        for (j, v) in updates {
            expect[j as usize] += v;
        }
        prop_assert_eq!(full, expect);
    }

    /// Server-side dot equals the local dot for random vectors, regardless
    /// of how many servers the columns are spread over.
    #[test]
    fn distributed_dot_matches_local(
        servers in 1usize..7,
        values in prop::collection::vec((-10.0f64..10.0, -10.0f64..10.0), 1..200)
    ) {
        let dim = values.len() as u64;
        let (got, expect) = with_ps(servers, 2, move |ctx, m| {
            let h = m.create_matrix(ctx, dim, 2, Partitioning::Column, InitKind::Zero);
            let a: Vec<f64> = values.iter().map(|&(x, _)| x).collect();
            let b: Vec<f64> = values.iter().map(|&(_, y)| y).collect();
            h.push_dense(ctx, 0, &a);
            h.push_dense(ctx, 1, &b);
            let local: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            (h.dot(ctx, 0, 1), local)
        });
        prop_assert!((got - expect).abs() <= 1e-9 * (1.0 + expect.abs()));
    }

    /// Element-wise server ops match their local counterparts.
    #[test]
    fn elem_ops_match_local(
        servers in 1usize..5,
        values in prop::collection::vec((-10.0f64..10.0, 0.5f64..10.0), 1..100),
        op_idx in 0usize..4
    ) {
        let op = [ElemOp::Add, ElemOp::Sub, ElemOp::Mul, ElemOp::Div][op_idx];
        let dim = values.len() as u64;
        let (got, expect) = with_ps(servers, 3, move |ctx, m| {
            let h = m.create_matrix(ctx, dim, 3, Partitioning::Column, InitKind::Zero);
            let a: Vec<f64> = values.iter().map(|&(x, _)| x).collect();
            let b: Vec<f64> = values.iter().map(|&(_, y)| y).collect();
            h.push_dense(ctx, 0, &a);
            h.push_dense(ctx, 1, &b);
            h.elem(ctx, 2, 0, 1, op);
            let expect: Vec<f64> = a.iter().zip(&b).map(|(&x, &y)| op.apply(x, y)).collect();
            (h.pull_row(ctx, 2), expect)
        });
        for (g, e) in got.iter().zip(&expect) {
            prop_assert!((g - e).abs() <= 1e-9 * (1.0 + e.abs()));
        }
    }

    /// Row plans and column plans hold the same data; only placement
    /// differs. The same dense, ranged and sparse pushes applied to both
    /// read back alike through every row-access pull.
    #[test]
    fn row_and_column_plans_agree_on_contents(
        servers in 1usize..5,
        dim in 1u64..500,
        row in 0u32..4,
        dense in prop::collection::vec(-10.0f64..10.0, 500..501),
        span in (0u64..500, 0u64..500),
        updates in prop::collection::btree_map(0u64..500, -100.0f64..100.0, 0..40),
        keys in prop::collection::btree_set(0u64..500, 0..40)
    ) {
        let dense = dense[..dim as usize].to_vec();
        let (a, b) = (span.0 % (dim + 1), span.1 % (dim + 1));
        let (lo, hi) = (a.min(b), a.max(b));
        let updates: Vec<(u64, f64)> = updates.into_iter().filter(|&(j, _)| j < dim).collect();
        let keys: Vec<u64> = keys.into_iter().filter(|&j| j < dim).collect();
        let got = with_ps(servers, 4, move |ctx, m| {
            let seed = 9;
            let init = InitKind::Uniform { lo: -1.0, hi: 1.0, seed };
            let col = m.create_matrix(ctx, dim, 4, Partitioning::Column, init.clone());
            let rowp = m.create_matrix(ctx, dim, 4, Partitioning::Row, init);
            let mut read = |h: &MatrixHandle| {
                h.push_dense(ctx, row, &dense);
                h.push_dense_range(ctx, row, lo, &dense[..(hi - lo) as usize]);
                h.push_sparse(ctx, row, &updates);
                (
                    h.pull_cols(ctx, row, &keys),
                    h.pull_range(ctx, row, lo, hi),
                    h.pull_row(ctx, row),
                )
            };
            (read(&col), read(&rowp))
        });
        prop_assert_eq!(got.0, got.1);
    }
}
