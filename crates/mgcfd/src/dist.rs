//! Rank-distributed Euler stepping with ghost-cell halo exchange.
//!
//! Each rank owns the cells its partition assigns it, keeps ghost copies
//! of remote face-neighbours, and per timestep (1) exchanges ghost
//! states, (2) agrees the stable `dt` by a global min-allreduce, and
//! (3) accumulates fluxes over every face touching an owned cell.
//! Face processing order matches the serial solver's global face order,
//! so a distributed run reproduces the serial state **bit-for-bit** —
//! the strongest possible validation of the halo machinery (and the
//! test below asserts exactly that).
//!
//! The distributed runner steps the finest level only; the geometric
//! multigrid cycle is exercised serially in [`crate::euler`] and modelled
//! at scale by [`crate::trace`].

use cpx_comm::{Group, RankCtx, ReduceOp};
use cpx_machine::KernelCost;
use cpx_mesh::{MeshPartition, UnstructuredMesh};

use crate::euler::{
    boundary_vectors, pressure, residual as serial_residual, wave_speed, Conserved,
};

/// Per-rank distributed Euler state.
pub struct DistributedEuler {
    /// The replicated mesh (functional scale, so replication is cheap;
    /// at production scale this path is replaced by trace generation).
    mesh: UnstructuredMesh,
    /// Partition assignment (replicated).
    assignment: Vec<usize>,
    /// Globally-indexed state; only owned + ghost entries are kept
    /// current on this rank.
    state: Vec<Conserved>,
    /// Owned cell ids (ascending).
    owned: Vec<usize>,
    /// For each peer rank: owned cells whose state we must send.
    send_lists: Vec<Vec<usize>>,
    /// For each peer rank: ghost cells we receive (ascending ids).
    recv_lists: Vec<Vec<usize>>,
    /// Faces this rank processes (at least one endpoint owned), in
    /// global face order.
    faces: Vec<(usize, usize, f64)>,
    /// Per-cell outward boundary (wall) area vectors of the full mesh.
    walls: Vec<[f64; 3]>,
    /// CFL number.
    pub cfl: f64,
}

impl DistributedEuler {
    /// Set up the rank-local structures from a replicated mesh and an
    /// initial global state. `group.size()` must equal the partition's
    /// part count.
    pub fn new(
        group: &Group,
        mesh: UnstructuredMesh,
        partition: &MeshPartition,
        initial: Vec<Conserved>,
    ) -> DistributedEuler {
        let me = group.index();
        let p = group.size();
        assert_eq!(partition.parts, p, "partition parts must equal group size");
        assert_eq!(initial.len(), mesh.n_cells());
        let assignment = partition.assignment.clone();
        let owned: Vec<usize> = (0..mesh.n_cells())
            .filter(|&c| assignment[c] == me)
            .collect();

        // Cross-face ghost negotiation is fully deterministic from the
        // replicated assignment: no communication needed.
        let mut send_sets: Vec<std::collections::BTreeSet<usize>> =
            vec![std::collections::BTreeSet::new(); p];
        let mut recv_sets: Vec<std::collections::BTreeSet<usize>> =
            vec![std::collections::BTreeSet::new(); p];
        let mut faces = Vec::new();
        for &(a, b, area) in &mesh.faces {
            let (pa, pb) = (assignment[a], assignment[b]);
            if pa == me || pb == me {
                faces.push((a, b, area));
            }
            if pa == me && pb != me {
                send_sets[pb].insert(a);
                recv_sets[pb].insert(b);
            } else if pb == me && pa != me {
                send_sets[pa].insert(b);
                recv_sets[pa].insert(a);
            }
        }

        let walls = boundary_vectors(&mesh);
        DistributedEuler {
            mesh,
            assignment,
            state: initial,
            owned,
            walls,
            send_lists: send_sets
                .into_iter()
                .map(|s| s.into_iter().collect())
                .collect(),
            recv_lists: recv_sets
                .into_iter()
                .map(|s| s.into_iter().collect())
                .collect(),
            faces,
            cfl: 0.4,
        }
    }

    /// Owned cell count.
    pub fn n_owned(&self) -> usize {
        self.owned.len()
    }

    /// Exchange ghost states with every neighbouring rank. Collective.
    fn exchange_ghosts(&mut self, ctx: &mut RankCtx, group: &Group) {
        let p = group.size();
        const TAG: u32 = 0x47; // 'G'
                               // Post all sends first (eager), then receive.
        for peer in 0..p {
            if self.send_lists[peer].is_empty() {
                continue;
            }
            let mut buf = Vec::with_capacity(self.send_lists[peer].len() * 5);
            for &c in &self.send_lists[peer] {
                buf.extend_from_slice(&self.state[c]);
            }
            ctx.compute(KernelCost::bytes(buf.len() as f64 * 16.0));
            ctx.send(group.member(peer), TAG, buf);
        }
        for peer in 0..p {
            if self.recv_lists[peer].is_empty() {
                continue;
            }
            let buf = ctx.recv(group.member(peer), TAG).into_f64();
            assert_eq!(buf.len(), self.recv_lists[peer].len() * 5);
            for (i, &c) in self.recv_lists[peer].iter().enumerate() {
                for k in 0..5 {
                    self.state[c][k] = buf[i * 5 + k];
                }
            }
        }
    }

    /// One explicit timestep. Collective; returns the global `dt` used.
    pub fn step(&mut self, ctx: &mut RankCtx, group: &Group) -> f64 {
        self.exchange_ghosts(ctx, group);

        // Local stable dt over the faces this rank processes, reduced
        // globally (min) — identical to the serial min over all faces.
        let mut local_min = f64::INFINITY;
        for &(a, b, _) in &self.faces {
            let d = [
                self.mesh.coords[b][0] - self.mesh.coords[a][0],
                self.mesh.coords[b][1] - self.mesh.coords[a][1],
                self.mesh.coords[b][2] - self.mesh.coords[a][2],
            ];
            let len = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
            let s = wave_speed(&self.state[a]).max(wave_speed(&self.state[b]));
            if s > 0.0 {
                local_min = local_min.min(len / s);
            }
        }
        let global_min = group.allreduce_scalar(ctx, ReduceOp::Min, local_min);
        let dt = self.cfl
            * if global_min.is_finite() {
                global_min
            } else {
                1.0
            };

        // Flux accumulation over this rank's faces; identical order to
        // serial for the owned endpoints.
        let nnz_work = self.faces.len() as f64;
        ctx.compute(KernelCost::new(nnz_work * 220.0, nnz_work * 200.0));
        let mut res: std::collections::HashMap<usize, Conserved> = std::collections::HashMap::new();
        for &(a, b, area) in &self.faces {
            let d = [
                self.mesh.coords[b][0] - self.mesh.coords[a][0],
                self.mesh.coords[b][1] - self.mesh.coords[a][1],
                self.mesh.coords[b][2] - self.mesh.coords[a][2],
            ];
            let len = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
            let n = [d[0] / len, d[1] / len, d[2] / len];
            let f = rusanov_face(&self.state[a], &self.state[b], n);
            if self.assignment[a] == group.index() {
                let e = res.entry(a).or_insert([0.0; 5]);
                for i in 0..5 {
                    e[i] -= f[i] * area;
                }
            }
            if self.assignment[b] == group.index() {
                let e = res.entry(b).or_insert([0.0; 5]);
                for i in 0..5 {
                    e[i] += f[i] * area;
                }
            }
        }
        // Slip-wall pressure flux on owned cells (same arithmetic and
        // ordering as the serial residual).
        for &c in &self.owned {
            let p_c = pressure(&self.state[c]);
            let e = res.entry(c).or_insert([0.0; 5]);
            for i in 0..3 {
                e[1 + i] -= p_c * self.walls[c][i];
            }
        }
        for &c in &self.owned {
            if let Some(r) = res.get(&c) {
                let f = dt / self.mesh.volumes[c];
                for i in 0..5 {
                    self.state[c][i] += f * r[i];
                }
            }
        }
        dt
    }

    /// Gather the full state to group member 0. Collective.
    pub fn gather_state(&self, ctx: &mut RankCtx, group: &Group) -> Option<Vec<Conserved>> {
        let mut flat = Vec::with_capacity(self.owned.len() * 6);
        for &c in &self.owned {
            flat.push(c as f64);
            flat.extend_from_slice(&self.state[c]);
        }
        let gathered = group.gather(ctx, 0, flat)?;
        let mut full = vec![[0.0; 5]; self.mesh.n_cells()];
        for part in gathered {
            for chunk in part.chunks_exact(6) {
                let c = chunk[0] as usize;
                full[c].copy_from_slice(&chunk[1..6]);
            }
        }
        Some(full)
    }

    /// Density of a cell (valid for owned cells and freshly-exchanged
    /// ghosts).
    pub fn density_of(&self, cell: usize) -> f64 {
        self.state[cell][0]
    }

    /// Local contribution to total mass (collective sum gives the
    /// conserved global mass).
    pub fn local_mass(&self) -> f64 {
        self.owned
            .iter()
            .map(|&c| self.state[c][0] * self.mesh.volumes[c])
            .sum()
    }
}

/// Rusanov flux (duplicated from `euler` to keep the arithmetic order
/// identical in both call sites).
fn rusanov_face(ua: &Conserved, ub: &Conserved, n: [f64; 3]) -> Conserved {
    // Delegate to the serial residual's building block by constructing
    // the same expressions; see `euler::residual`.
    let fa = flux_dir(ua, n);
    let fb = flux_dir(ub, n);
    let smax = wave_speed(ua).max(wave_speed(ub));
    let mut out = [0.0; 5];
    for i in 0..5 {
        out[i] = 0.5 * (fa[i] + fb[i]) - 0.5 * smax * (ub[i] - ua[i]);
    }
    out
}

fn flux_dir(u: &Conserved, n: [f64; 3]) -> Conserved {
    let rho = u[0];
    let inv_rho = 1.0 / rho;
    let vel = [u[1] * inv_rho, u[2] * inv_rho, u[3] * inv_rho];
    let vn = vel[0] * n[0] + vel[1] * n[1] + vel[2] * n[2];
    let ke = 0.5 * rho * (vel[0] * vel[0] + vel[1] * vel[1] + vel[2] * vel[2]);
    let p = (crate::euler::GAMMA - 1.0) * (u[4] - ke);
    [
        rho * vn,
        u[1] * vn + p * n[0],
        u[2] * vn + p * n[1],
        u[3] * vn + p * n[2],
        (u[4] + p) * vn,
    ]
}

/// Serial reference used by the equivalence test.
pub fn serial_steps(
    mesh: &UnstructuredMesh,
    mut state: Vec<Conserved>,
    cfl: f64,
    steps: usize,
) -> Vec<Conserved> {
    for _ in 0..steps {
        let mut min_dt = f64::INFINITY;
        for &(a, b, _) in &mesh.faces {
            let d = [
                mesh.coords[b][0] - mesh.coords[a][0],
                mesh.coords[b][1] - mesh.coords[a][1],
                mesh.coords[b][2] - mesh.coords[a][2],
            ];
            let len = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
            let s = wave_speed(&state[a]).max(wave_speed(&state[b]));
            if s > 0.0 {
                min_dt = min_dt.min(len / s);
            }
        }
        let dt = cfl * if min_dt.is_finite() { min_dt } else { 1.0 };
        let res = serial_residual(mesh, &state);
        for c in 0..state.len() {
            let f = dt / mesh.volumes[c];
            for i in 0..5 {
                state[c][i] += f * res[c][i];
            }
        }
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpx_comm::World;
    use cpx_machine::Machine;
    use cpx_mesh::mesh::combustor_box;
    use cpx_mesh::MeshHierarchy;

    fn initial(mesh: &UnstructuredMesh) -> Vec<Conserved> {
        let h = MeshHierarchy::build(mesh.clone(), 1);
        crate::euler::EulerSolver::acoustic_pulse(h, 0.1).state
    }

    #[test]
    fn distributed_matches_serial_bit_for_bit() {
        let mesh = combustor_box(6, 6, 6, 0.0, 1.0, 1.0, 1.0);
        let init = initial(&mesh);
        let want = serial_steps(&mesh, init.clone(), 0.4, 10);
        for p in [2usize, 4, 7] {
            let mesh2 = mesh.clone();
            let init2 = init.clone();
            let res = World::new(Machine::archer2()).run(p, move |ctx| {
                let group = ctx.world();
                let partition = MeshPartition::build(&mesh2, group.size());
                let mut solver =
                    DistributedEuler::new(&group, mesh2.clone(), &partition, init2.clone());
                for _ in 0..10 {
                    solver.step(ctx, &group);
                }
                solver.gather_state(ctx, &group)
            });
            let got = res[0].0.as_ref().expect("rank 0 gathers");
            for (c, (u, v)) in got.iter().zip(&want).enumerate() {
                for i in 0..5 {
                    assert!(
                        u[i] == v[i],
                        "p={p} cell {c} comp {i}: {} != {}",
                        u[i],
                        v[i]
                    );
                }
            }
        }
    }

    #[test]
    fn mass_conserved_distributed() {
        let mesh = combustor_box(5, 5, 5, 0.0, 1.0, 1.0, 1.0);
        let init = initial(&mesh);
        let m0: f64 = init.iter().zip(&mesh.volumes).map(|(u, &v)| u[0] * v).sum();
        let res = World::new(Machine::archer2()).run(3, move |ctx| {
            let group = ctx.world();
            let partition = MeshPartition::build(&mesh, group.size());
            let mut solver = DistributedEuler::new(&group, mesh.clone(), &partition, init.clone());
            for _ in 0..20 {
                solver.step(ctx, &group);
            }
            group.allreduce_scalar(ctx, cpx_comm::ReduceOp::Sum, solver.local_mass())
        });
        for (m, _) in res {
            assert!((m - m0).abs() / m0 < 1e-12);
        }
    }

    #[test]
    fn ghost_counts_symmetric() {
        let mesh = combustor_box(4, 4, 4, 0.0, 1.0, 1.0, 1.0);
        let init = initial(&mesh);
        let res = World::new(Machine::archer2()).run(4, move |ctx| {
            let group = ctx.world();
            let partition = MeshPartition::build(&mesh, group.size());
            let solver = DistributedEuler::new(&group, mesh.clone(), &partition, init.clone());
            (
                solver.send_lists.iter().map(Vec::len).collect::<Vec<_>>(),
                solver.recv_lists.iter().map(Vec::len).collect::<Vec<_>>(),
            )
        });
        // send_lists[r][s] must equal recv_lists[s][r].
        for r in 0..4 {
            for s in 0..4 {
                assert_eq!(res[r].0 .0[s], res[s].0 .1[r], "r={r} s={s}");
            }
        }
    }

    #[test]
    fn owned_cells_partition_the_mesh() {
        let mesh = combustor_box(4, 4, 4, 0.0, 1.0, 1.0, 1.0);
        let init = initial(&mesh);
        let res = World::new(Machine::archer2()).run(3, move |ctx| {
            let group = ctx.world();
            let partition = MeshPartition::build(&mesh, group.size());
            let solver = DistributedEuler::new(&group, mesh.clone(), &partition, init.clone());
            solver.n_owned()
        });
        let total: usize = res.iter().map(|(n, _)| n).sum();
        assert_eq!(total, 64);
    }
}
