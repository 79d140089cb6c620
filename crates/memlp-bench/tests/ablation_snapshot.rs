//! Snapshot of every ablation table at two trials per point.
//!
//! [`memlp_bench::ablation::tables`] runs the eight studies A1–A8; their
//! CSVs, each under a `# <csv name>` line, must match the text below,
//! recorded from the eight per-study bench targets the module replaced
//! (run with `MEMLP_TRIALS=2`). The tables hold only seeded, modelled
//! quantities — no wall-clock — so they must match at any
//! `MEMLP_THREADS`.
//!
//! Two Algorithm 1 cells were re-recorded when a stall whose verdict is
//! already settled began to exit after 12 iterations without improvement
//! instead of 25: `ablation_bits` at 6 bits (mean error 1.057% → 0.942%,
//! max error held) and `ablation_sparsity` at density 0.1 (run time
//! 5.88 → 4.79 ms). Every success count held.

#[test]
fn ablation_tables_snapshot() {
    let actual: String = memlp_bench::ablation::tables(2)
        .iter()
        .map(|(csv, table)| format!("# {csv}\n{}", table.csv()))
        .collect();
    assert_eq!(actual, EXPECTED);
}

const EXPECTED: &str = "\
# ablation_bits
bits,mean err %,max err %,success
4,NaN,NaN,0/2
6,0.942,1.869,2/2
8,1.223,2.204,2/2
10,1.079,1.928,2/2
12,1.075,1.940,2/2
16,1.090,1.957,2/2
# ablation_fill
fill,mean err %,max err %,mean iters,success
0.005,2.538,4.478,164.0,2/2
0.02,4.380,6.322,115.5,2/2
0.05,5.007,6.192,86.5,2/2
0.1,4.439,4.541,94.5,2/2
0.3,2.524,3.264,95.0,2/2
1,2.667,4.522,129.5,2/2
# ablation_noc
tile,tiles,topology,max err %,noc transfers,noc+array time
32,64,hierarchical,0.501,64,7.74 µs
32,64,mesh,0.501,64,8.04 µs
64,16,hierarchical,0.617,16,1.90 µs
64,16,mesh,0.617,16,1.93 µs
128,4,hierarchical,0.587,4,0.47 µs
128,4,mesh,0.587,4,0.47 µs
256,1,hierarchical,0.674,1,0.11 µs
256,1,mesh,0.674,1,0.11 µs
# ablation_faults
fault rate,mean err %,max err %,success
0,0.456,0.553,2/2
0.0001,0.538,0.718,2/2
0.001,0.597,1.194,2/2
0.005,0.287,0.574,2/2
0.01,0.000,0.000,2/2
# ablation_variation_model
max var %,distribution,mean err %,max err %,success
5,uniform,1.149,1.348,2/2
5,gaussian,0.311,0.393,2/2
10,uniform,2.948,2.969,2/2
10,gaussian,0.578,0.582,2/2
20,uniform,4.313,4.343,2/2
20,gaussian,1.901,2.606,2/2
# ablation_fidelity
n,fidelity,readout,mvm err %,solve err %
8,functional,-,7.948,6.292
8,circuit,calibrated,7.815,5.941
8,circuit,raw-divider,20.191,5.941
16,functional,-,5.134,5.848
16,circuit,calibrated,4.957,5.758
16,circuit,raw-divider,20.820,5.758
32,functional,-,6.929,8.930
32,circuit,calibrated,6.691,11.152
32,circuit,raw-divider,31.103,11.152
# ablation_sparsity
density,nnz(A),setup writes,setup time,run time,mean err %,success
1,3072,6784,8.48 ms,2.35 ms,0.334,2/2
0.5,1554,3748,4.69 ms,2.82 ms,0.306,2/2
0.25,769,2166,2.71 ms,3.85 ms,0.275,2/2
0.1,314,1191,1.49 ms,4.79 ms,0.330,2/2
# ablation_drift
tau,refresh every,mean err %,max err %,success,extra writes
none,never,0.234,0.448,2/2,885
10 s,never,0.264,0.501,2/2,888
10 s,10,0.264,0.501,2/2,888
1 s,never,0.385,0.661,2/2,888
1 s,10,0.385,0.661,2/2,888
100 ms,never,0.452,0.804,2/2,948
100 ms,10,0.452,0.804,2/2,948
30 ms,never,2.372,2.445,2/2,950
30 ms,10,2.372,2.445,2/2,950
";
