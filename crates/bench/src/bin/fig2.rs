//! **F2 — Figure 2**: 600 nodes embedded in a 3-dimensional cost space
//! (latency on x–y, squared CPU load on z).
//!
//! The paper's figure is a scatter plot of a 600-node simulated transit-stub
//! network. We regenerate the underlying data: the Vivaldi 2-D latency
//! embedding (with its error report — the paper's feasibility argument
//! rests on the error being "slight" \[16\]) plus the squared-load z
//! coordinate, and verify that overloaded nodes (the figure's "node a")
//! stand out on the z axis.

use sbon_bench::{build_world, section, subsection, WorldConfig};
use sbon_coords::error::EmbeddingErrorReport;
use sbon_netsim::graph::NodeId;
use sbon_netsim::load::{Attr, LoadModel};
use sbon_netsim::metrics::Summary;

fn main() {
    section("F2 / Figure 2 — 600 nodes in a 3-D cost space (latency x-y, load² z)");

    let cfg = WorldConfig {
        nodes: 600,
        load: LoadModel::Hotspots { base: 0.15, count: 12, hot: 0.95 },
        load_scale: 100.0,
        // This figure reports whole-matrix latency statistics, one of the
        // few consumers that genuinely needs the dense backend.
        backend: sbon_bench::GroundTruthBackend::Dense,
        ..Default::default()
    };
    let world = build_world(&cfg, 42);
    let n = world.topology.num_nodes();
    println!(
        "topology: transit-stub, {n} nodes ({} transit, {} stub)",
        world.topology.transit_nodes().len(),
        world.topology.stub_nodes().len()
    );

    subsection("Vivaldi embedding quality (2-D latency plane)");
    let report = EmbeddingErrorReport::measure(&world.embedding, &world.latency, 5_000, 1);
    println!("pairwise relative error: {}", report.relative.row());
    println!("node error estimates:    {}", report.node_estimates.row());

    // Height-vector variant (Dabek et al. §5.4): models stub access links,
    // which transit-stub topologies have by construction.
    let tall = sbon_coords::vivaldi::VivaldiConfig { use_height: true, ..Default::default() }
        .embed(&world.latency, world.seed);
    let tall_report = EmbeddingErrorReport::measure(&tall, &world.latency, 5_000, 1);
    println!("with height vectors:     {}", tall_report.relative.row());

    subsection("coordinate table (first 12 nodes; full series = the figure's point cloud)");
    println!("{:<6} {:>10} {:>10} {:>10} {:>8}", "node", "x(ms)", "y(ms)", "z=100·load²", "load");
    for i in 0..12 {
        let node = NodeId(i as u32);
        let p = world.space.point(node);
        println!(
            "{:<6} {:>10.2} {:>10.2} {:>10.2} {:>8.2}",
            node.to_string(),
            p.as_slice()[0],
            p.as_slice()[1],
            p.as_slice()[2],
            world.attrs.get(node, Attr::CpuLoad),
        );
    }

    subsection("z-axis distribution (squared weighting separates hot nodes)");
    let z: Vec<f64> = (0..n).map(|i| world.space.point(NodeId(i as u32)).as_slice()[2]).collect();
    println!("all nodes:        {}", Summary::of(&z).row());
    let hot: Vec<f64> = (0..n)
        .filter(|&i| world.attrs.get(NodeId(i as u32), Attr::CpuLoad) > 0.9)
        .map(|i| z[i])
        .collect();
    let cold: Vec<f64> = (0..n)
        .filter(|&i| world.attrs.get(NodeId(i as u32), Attr::CpuLoad) <= 0.9)
        .map(|i| z[i])
        .collect();
    println!("overloaded nodes: {}", Summary::of(&hot).row());
    println!("ordinary nodes:   {}", Summary::of(&cold).row());

    // ASCII histogram of z (the figure's visual: a flat plane with spikes).
    subsection("z histogram (log-ish buckets)");
    let buckets = [0.0, 1.0, 4.0, 9.0, 25.0, 49.0, 81.0, 100.1];
    for w in buckets.windows(2) {
        let count = z.iter().filter(|&&v| v >= w[0] && v < w[1]).count();
        println!(
            "[{:>6.1}, {:>6.1})  {:>4}  {}",
            w[0],
            w[1],
            count,
            "#".repeat((count as f64).sqrt() as usize)
        );
    }

    subsection("latency plane spread vs ground truth");
    let matrix = world.latency.matrix().expect("fig2 builds a dense world");
    let max_lat = matrix.max_latency();
    let mean_lat = matrix.mean_latency();
    println!("ground truth: mean latency {mean_lat:.1} ms, max {max_lat:.1} ms");
    let spread = Summary::of(
        &(0..n)
            .flat_map(|i| {
                let a = NodeId(i as u32);
                (0..n).step_by(37).map(move |j| (a, NodeId(j as u32)))
            })
            .filter(|(a, b)| a != b)
            .map(|(a, b)| world.embedding.estimated_latency(a, b))
            .collect::<Vec<_>>(),
    );
    println!("embedded:     {}", spread.row());

    println!();
    println!("shape check (paper): median relative embedding error small; hot nodes");
    println!("('node a') rise far above the latency plane under the squared weighting.");
}
