//! The autonomic story: the framework keeps a system dependable *as the
//! network changes*. Link qualities fluctuate mid-run; monitoring picks up
//! the new reality; the analyzer waits for stability, then redeploys again.
//!
//! ```sh
//! cargo run --example fluctuating_network
//! ```

use redep::framework::{AnalyzerConfig, CentralizedFramework, RuntimeConfig};
use redep::model::{Availability, Generator, GeneratorConfig};
use redep::netsim::{Duration, LinkSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let system = Generator::generate(&GeneratorConfig::sized(4, 12).with_seed(77))?;
    let mut fw = CentralizedFramework::new(
        system.model.clone(),
        system.initial.clone(),
        &RuntimeConfig::default(),
        AnalyzerConfig::default(),
    )?;

    let mut redeployments = Vec::new();
    let cycle_once = |fw: &mut CentralizedFramework, phase: &str, redeps: &mut Vec<String>| {
        let report = fw
            .cycle(
                &Availability,
                Duration::from_secs_f64(5.0),
                Duration::from_secs_f64(120.0),
            )
            .expect("cycle");
        if let Some(d) = &report.decision {
            if d.accepted {
                redeps.push(format!(
                    "t={:.0}s [{phase}] {} → availability {:.4}",
                    report.time_secs, d.algorithm, d.record.availability
                ));
            }
        }
        println!(
            "[{phase}] t={:>5.0}s measured availability {:.4}",
            report.time_secs, report.measured_availability
        );
    };

    println!("— phase 1: initial conditions —");
    for _ in 0..6 {
        cycle_once(&mut fw, "initial", &mut redeployments);
    }

    println!("\n— the environment shifts: the backbone degrades, a side link improves —");
    {
        let hosts: Vec<_> = fw.runtime().hosts().to_vec();
        let sim = fw.runtime_mut().sim_mut();
        // Invert the quality order of two links.
        for ((a, b), reliability) in [((0, 1), 0.15), ((2, 3), 0.98)] {
            if let Some(link) = sim.topology().link(hosts[a], hosts[b]) {
                let spec = LinkSpec {
                    reliability,
                    ..link.spec
                };
                sim.set_link(hosts[a], hosts[b], spec);
            }
        }
    }

    println!("\n— phase 2: the framework adapts —");
    for _ in 0..8 {
        cycle_once(&mut fw, "shifted", &mut redeployments);
    }

    println!("\nredeployments effected:");
    for r in &redeployments {
        println!("  {r}");
    }
    println!(
        "\nanalyzer availability profile ({} observations):",
        fw.analyzer().history().len()
    );
    for e in fw.analyzer().history() {
        println!(
            "  t={:>5.0}s {:.4}{}",
            e.time_secs,
            e.availability,
            if e.redeployed { "  ← redeployed" } else { "" }
        );
    }
    Ok(())
}
