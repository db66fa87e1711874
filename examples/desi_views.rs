//! DeSi's views (Figures 9 and 10): generate a hypothetical architecture,
//! run the algorithm suite, and render the tabular page, the deployment
//! graph (writes `target/desi_deployment.svg`), and the telemetry page
//! with per-algorithm convergence sparklines.
//!
//! ```sh
//! cargo run --example desi_views
//! ```

use redep::algorithms::{AvalaAlgorithm, ExactAlgorithm, GeneticAlgorithm, StochasticAlgorithm};
use redep::desi::{DeSi, TelemetryView};
use redep::model::{keys, Availability, GeneratorConfig};
use redep::telemetry::Telemetry;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // DeSi's Generator controller: fabricate an architecture from ranges.
    let mut desi = DeSi::generate(&GeneratorConfig::sized(4, 12).with_seed(42))?;

    // The Modifier controller: tune a single parameter and observe the
    // sensitivity (then keep the change).
    let h0 = desi.system().model().host_ids()[0];
    let (before, after) = desi.sensitivity(&Availability, |m, model| {
        m.set_host_param(model, h0, keys::HOST_MEMORY, 200.0)
    })?;
    println!("sensitivity of availability to {h0}'s memory = 200: {before:.4} -> {after:.4}");
    desi.modify(|m, model| m.set_host_param(model, h0, keys::HOST_MEMORY, 200.0))?;

    // The AlgorithmContainer: plug in the suite and run everything.
    desi.container_mut().register(ExactAlgorithm::new());
    desi.container_mut().register(AvalaAlgorithm::new());
    desi.container_mut().register(StochasticAlgorithm::new());
    desi.container_mut().register(GeneticAlgorithm::new());
    for (name, outcome) in desi.run_all(&Availability) {
        if let Err(e) = outcome {
            println!("note: {name} did not produce a result: {e}");
        }
    }

    // Figure 9: the table-oriented page.
    println!("{}", desi.render_table());

    // Figure 10: the graph-oriented page (ASCII overview + SVG file).
    println!("{}", desi.render_ascii());
    let svg = desi.render_svg(1.0);
    std::fs::create_dir_all("target")?;
    std::fs::write("target/desi_deployment.svg", &svg)?;
    println!("wrote target/desi_deployment.svg ({} bytes)", svg.len());

    // The telemetry page: convergence sparklines for every recorded run
    // (pass a live handle instead of `disabled()` to include a run journal).
    println!(
        "{}",
        TelemetryView::new().render(&Telemetry::disabled(), desi.results())
    );

    // Round-trip the architecture description (the xADL channel).
    let adl = desi.to_adl()?;
    println!("\nADL document: {} bytes of JSON", adl.len());
    Ok(())
}
