//! Pins the exact bytes the vendored serializer writes, compact and pretty,
//! for the edge cases every encoder must get right: string escapes, float
//! formatting (integral, tiny, huge, signed zero, non-finite), integer
//! extremes, empty containers, map entry lists, each derive shape, and one
//! of every hand-written tagged record the journal and the wire carry.
//!
//! On a mismatch the failure names each case that moved and prints the
//! recomputed table, ready to paste over `EXPECTED` when a byte change is
//! intended.

use nnrt_graph::{DataflowGraph, OpKind, Shape};
use nnrt_obs::{Clock, Event, EventKind};
use nnrt_rpc::{ErrorFrame, ErrorKind, Request, Response, SnapshotInfo, SubmitSpec};
use nnrt_serve::{FaultEvent, FaultPlan, JobPhase, JobStatus, JournalRecord, StoreStats};
use serde::Serialize;
use std::collections::{BTreeMap, HashMap};

#[derive(Serialize)]
enum Fieldless {
    Alpha,
    Beta,
}

#[derive(Serialize)]
struct Unit;

#[derive(Serialize)]
struct Newtype(f64);

#[derive(Serialize)]
struct Pair(u8, String);

#[derive(Serialize)]
struct Named {
    label: String,
    empty: Vec<Vec<u8>>,
    none: Option<u32>,
    some: Option<i8>,
    unit: Unit,
    pair: Pair,
}

fn graph() -> DataflowGraph {
    let mut g = DataflowGraph::new();
    let a = g.add_op(OpKind::Conv2D, Shape::nhwc(4, 8, 8, 3), &[]);
    let b = g.add_op(OpKind::Relu, Shape::nhwc(4, 8, 8, 16), &[a]);
    g.add_op(OpKind::MatMul, Shape::mat(4, 1024), &[a, b]);
    g
}

fn journal_records() -> Vec<JournalRecord> {
    vec![
        JournalRecord::header(),
        JournalRecord::Graph {
            id: 4,
            graph: graph(),
        },
        JournalRecord::Admit {
            id: 7,
            name: "dcgan-7".to_string(),
            model: "dcgan".to_string(),
            steps: 3,
            priority: 2,
            weight: 1.5,
            graph: 4,
        },
        JournalRecord::Place { id: 7, node: 1 },
        JournalRecord::StoreInsert {
            machine: serde_json::from_str("12297829382473034410").unwrap(),
            profiles: serde_json::from_str(
                r#"[{"kind":"Conv2D","shape":[4,8,8,3],
                     "compact":{"samples":[[1,0.25],[4,0.0625]]},
                     "scatter":{"samples":[[1,0.3],[68,1e-5]]}}]"#,
            )
            .unwrap(),
        },
        JournalRecord::StorePublish {
            machine: serde_json::from_str("12297829382473034410").unwrap(),
            touched: vec![(OpKind::Relu, Shape::nhwc(4, 8, 8, 16))],
            profiles: Vec::new(),
        },
        JournalRecord::Checkpoint {
            id: 7,
            steps_done: 2,
            at: 12.0,
            fitted_keys: vec![(OpKind::Relu, Shape::nhwc(4, 8, 8, 16))],
        },
        JournalRecord::Evict { id: 7, at: 0.1 },
        JournalRecord::Retry { id: 7, node: 0 },
        JournalRecord::Complete {
            id: 7,
            name: "dcgan-7".to_string(),
            model: "dcgan".to_string(),
            steps: 3,
            node: 0,
            at: 1234.5678,
        },
    ]
}

fn status(phase: JobPhase, node: Option<u32>) -> JobStatus {
    JobStatus {
        id: 3,
        name: "lstm-3".to_string(),
        model: "lstm".to_string(),
        phase,
        steps_done: 1,
        steps: 4,
        node,
        durability_disabled: false,
    }
}

fn requests() -> Vec<Request> {
    vec![
        Request::Submit(SubmitSpec {
            name: String::new(),
            model: "resnet50".to_string(),
            batch: 16,
            steps: 3,
            priority: 1,
            weight: 0.5,
        }),
        Request::Status { job_id: u64::MAX },
        Request::ListJobs,
        Request::Snapshot,
        Request::Metrics,
        Request::Events,
        Request::Shutdown,
    ]
}

fn responses() -> Vec<Response> {
    let stats = StoreStats {
        hits: 3,
        misses: 1,
        ..StoreStats::default()
    };
    vec![
        Response::Submitted { job_id: 0 },
        Response::Job(status(JobPhase::Running, Some(1))),
        Response::Jobs(vec![
            status(JobPhase::Queued, None),
            status(JobPhase::Completed, Some(0)),
        ]),
        Response::Snapshot(SnapshotInfo::new(
            2,
            stats,
            "{\"format\":\"x\"}".to_string(),
        )),
        Response::Metrics {
            text: "# TYPE c counter\nc{l=\"v\"} 1\n".to_string(),
        },
        Response::Events(vec![Event {
            seq: 0,
            at: 2.0,
            clock: Clock::Sim,
            kind: EventKind::Place,
            job: Some(3),
            node: None,
            detail: "key=Conv2D/[4,8,8,3]".to_string(),
        }]),
        Response::Bye {
            report: "{}".to_string(),
        },
        Response::Error(ErrorFrame {
            kind: ErrorKind::Saturated,
            message: "queue full".to_string(),
            retry_after_secs: Some(0.25),
        }),
        Response::Error(ErrorFrame {
            kind: ErrorKind::UnknownModel,
            message: "no model `x`".to_string(),
            retry_after_secs: None,
        }),
    ]
}

fn fault_plan() -> FaultPlan {
    FaultPlan {
        events: vec![
            FaultEvent::NodeCrash {
                node: 1,
                at: 3.0,
                down_secs: 0.5,
            },
            FaultEvent::NodeSlowdown {
                node: 0,
                at: 1.25,
                factor: 2.0,
                duration_secs: 10.0,
            },
            FaultEvent::StoreCorruption {
                at: 7.0,
                drop_fraction: 0.3,
            },
        ],
        profiling_step_budget: None,
        seed: 99,
    }
}

/// Every case's `(name, encoded text)`, compact unless the name says
/// `pretty`.
fn actual() -> Vec<(String, String)> {
    let mut cases: Vec<(String, String)> = Vec::new();
    let mut push = |name: &str, text: String| cases.push((name.to_string(), text));
    fn c<T: Serialize>(v: &T) -> String {
        serde_json::to_string(v).expect("serializes")
    }
    fn p<T: Serialize>(v: &T) -> String {
        serde_json::to_string_pretty(v).expect("serializes")
    }

    push("str_escapes", c(&"q\" b\\ n\n r\r t\t u\u{1} é ✓ 𝄞"));
    push("str_empty", c(&""));
    for (name, f) in [
        ("f64_zero", 0.0f64),
        ("f64_neg_zero", -0.0),
        ("f64_one", 1.0),
        ("f64_tiny", 1e-7),
        ("f64_1e21", 1e21),
        ("f64_max", f64::MAX),
        ("f64_nan", f64::NAN),
        ("f64_inf", f64::INFINITY),
        ("f64_neg_inf", f64::NEG_INFINITY),
        ("f64_frac", -1234.5678),
    ] {
        push(name, c(&f));
    }
    push("f32_tenth", c(&0.1f32));
    push("i64_min", c(&i64::MIN));
    push("u64_max", c(&u64::MAX));
    push("i8_neg", c(&-5i8));
    push("usize_zero", c(&0usize));
    push("bool_pair", c(&(true, false)));
    push(
        "nested_empty",
        c(&(Vec::<u8>::new(), vec![Vec::<u8>::new()])),
    );
    push("option_none", c(&Option::<u32>::None));
    push("tuple3", c(&(1u8, "two", 3.0f64)));
    push("array4", c(&[1u16, 2, 3, 4]));
    let btree: BTreeMap<String, Vec<f64>> =
        [("b".to_string(), vec![0.5]), ("a".to_string(), vec![])]
            .into_iter()
            .collect();
    push("btreemap", c(&btree));
    push("btreemap_empty", c(&BTreeMap::<u8, u8>::new()));
    let hash: HashMap<u32, &str> = [(3, "c"), (1, "a"), (2, "b")].into_iter().collect();
    push("hashmap", c(&hash));
    push("derive_fieldless", c(&[Fieldless::Alpha, Fieldless::Beta]));
    push("derive_unit", c(&Unit));
    push("derive_newtype", c(&Newtype(2.0)));
    push("derive_tuple", c(&Pair(255, "x\"y".to_string())));
    let named = Named {
        label: "n".to_string(),
        empty: vec![vec![], vec![1]],
        none: None,
        some: Some(-1),
        unit: Unit,
        pair: Pair(0, String::new()),
    };
    push("derive_named", c(&named));
    push("derive_named_pretty", p(&named));
    let value: serde_json::Value =
        serde_json::from_str(r#"{"a":[1,-2,2.5,{}],"b":{"c":null,"d":[[]]},"e":"s:,{"}"#)
            .expect("parses");
    push("value", c(&value));
    push("value_pretty", p(&value));
    push("fault_plan", c(&fault_plan()));
    push("fault_plan_pretty", p(&fault_plan()));
    for rec in journal_records() {
        let form = match rec {
            JournalRecord::StorePublish { .. } => "_touched",
            _ => "",
        };
        push(&format!("journal_{}{form}", rec.tag()), c(&rec));
    }
    for req in requests() {
        push(&format!("request_{}", req.kind()), c(&req));
    }
    for (i, resp) in responses().iter().enumerate() {
        push(&format!("response_{i}"), c(resp));
    }
    cases
}

const EXPECTED: &[(&str, &str)] = &[
    ("str_escapes", "\"q\\\" b\\\\ n\\n r\\r t\\t u\\u0001 é ✓ 𝄞\""),
    ("str_empty", "\"\""),
    ("f64_zero", "0.0"),
    ("f64_neg_zero", "-0.0"),
    ("f64_one", "1.0"),
    ("f64_tiny", "0.0000001"),
    ("f64_1e21", "1000000000000000000000.0"),
    ("f64_max", "179769313486231570000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000.0"),
    ("f64_nan", "null"),
    ("f64_inf", "null"),
    ("f64_neg_inf", "null"),
    ("f64_frac", "-1234.5678"),
    ("f32_tenth", "0.10000000149011612"),
    ("i64_min", "-9223372036854775808"),
    ("u64_max", "18446744073709551615"),
    ("i8_neg", "-5"),
    ("usize_zero", "0"),
    ("bool_pair", "[true,false]"),
    ("nested_empty", "[[],[[]]]"),
    ("option_none", "null"),
    ("tuple3", "[1,\"two\",3.0]"),
    ("array4", "[1,2,3,4]"),
    ("btreemap", "[[\"a\",[]],[\"b\",[0.5]]]"),
    ("btreemap_empty", "[]"),
    ("hashmap", "[[1,\"a\"],[2,\"b\"],[3,\"c\"]]"),
    ("derive_fieldless", "[\"Alpha\",\"Beta\"]"),
    ("derive_unit", "null"),
    ("derive_newtype", "2.0"),
    ("derive_tuple", "[255,\"x\\\"y\"]"),
    ("derive_named", "{\"label\":\"n\",\"empty\":[[],[1]],\"none\":null,\"some\":-1,\"unit\":null,\"pair\":[0,\"\"]}"),
    ("derive_named_pretty", "{\n  \"label\": \"n\",\n  \"empty\": [\n    [],\n    [\n      1\n    ]\n  ],\n  \"none\": null,\n  \"some\": -1,\n  \"unit\": null,\n  \"pair\": [\n    0,\n    \"\"\n  ]\n}"),
    ("value", "{\"a\":[1,-2,2.5,{}],\"b\":{\"c\":null,\"d\":[[]]},\"e\":\"s:,{\"}"),
    ("value_pretty", "{\n  \"a\": [\n    1,\n    -2,\n    2.5,\n    {}\n  ],\n  \"b\": {\n    \"c\": null,\n    \"d\": [\n      []\n    ]\n  },\n  \"e\": \"s:,{\"\n}"),
    ("fault_plan", "{\"events\":[{\"type\":\"node_crash\",\"node\":1,\"at\":3.0,\"down_secs\":0.5},{\"type\":\"node_slowdown\",\"node\":0,\"at\":1.25,\"factor\":2.0,\"duration_secs\":10.0},{\"type\":\"store_corruption\",\"at\":7.0,\"drop_fraction\":0.3}],\"profiling_step_budget\":null,\"seed\":99}"),
    ("fault_plan_pretty", "{\n  \"events\": [\n    {\n      \"type\": \"node_crash\",\n      \"node\": 1,\n      \"at\": 3.0,\n      \"down_secs\": 0.5\n    },\n    {\n      \"type\": \"node_slowdown\",\n      \"node\": 0,\n      \"at\": 1.25,\n      \"factor\": 2.0,\n      \"duration_secs\": 10.0\n    },\n    {\n      \"type\": \"store_corruption\",\n      \"at\": 7.0,\n      \"drop_fraction\": 0.3\n    }\n  ],\n  \"profiling_step_budget\": null,\n  \"seed\": 99\n}"),
    ("journal_header", "{\"type\":\"header\",\"format\":\"nnrt-job-journal\",\"version\":2}"),
    ("journal_graph", "{\"type\":\"graph\",\"id\":4,\"graph\":{\"nodes\":[{\"kind\":\"Conv2D\",\"shape\":[4,8,8,3],\"aux\":{\"kernel_h\":1,\"kernel_w\":1,\"stride\":1,\"c_out\":0}},{\"kind\":\"Relu\",\"shape\":[4,8,8,16],\"aux\":{\"kernel_h\":1,\"kernel_w\":1,\"stride\":1,\"c_out\":0}},{\"kind\":\"MatMul\",\"shape\":[4,1024],\"aux\":{\"kernel_h\":1,\"kernel_w\":1,\"stride\":1,\"c_out\":0}}],\"preds\":[[],[0],[0,1]],\"succs\":[[1,2],[2],[]]}}"),
    ("journal_admit", "{\"type\":\"admit\",\"id\":7,\"name\":\"dcgan-7\",\"model\":\"dcgan\",\"steps\":3,\"priority\":2,\"weight\":1.5,\"graph\":4}"),
    ("journal_place", "{\"type\":\"place\",\"id\":7,\"node\":1}"),
    ("journal_store_insert", "{\"type\":\"store_insert\",\"machine\":12297829382473034410,\"profiles\":[{\"kind\":\"Conv2D\",\"shape\":[4,8,8,3],\"compact\":{\"samples\":[[1,0.25],[4,0.0625]]},\"scatter\":{\"samples\":[[1,0.3],[68,0.00001]]}}]}"),
    ("journal_store_insert_touched", "{\"type\":\"store_insert\",\"machine\":12297829382473034410,\"touched\":[[\"Relu\",[4,8,8,16]]],\"profiles\":[]}"),
    ("journal_checkpoint", "{\"type\":\"checkpoint\",\"id\":7,\"steps_done\":2,\"at\":12.0,\"fitted_keys\":[[\"Relu\",[4,8,8,16]]]}"),
    ("journal_evict", "{\"type\":\"evict\",\"id\":7,\"at\":0.1}"),
    ("journal_retry", "{\"type\":\"retry\",\"id\":7,\"node\":0}"),
    ("journal_complete", "{\"type\":\"complete\",\"id\":7,\"name\":\"dcgan-7\",\"model\":\"dcgan\",\"steps\":3,\"node\":0,\"at\":1234.5678}"),
    ("request_submit", "{\"type\":\"submit\",\"spec\":{\"name\":\"\",\"model\":\"resnet50\",\"batch\":16,\"steps\":3,\"priority\":1,\"weight\":0.5}}"),
    ("request_status", "{\"type\":\"status\",\"job_id\":18446744073709551615}"),
    ("request_list_jobs", "{\"type\":\"list_jobs\"}"),
    ("request_snapshot", "{\"type\":\"snapshot\"}"),
    ("request_metrics", "{\"type\":\"metrics\"}"),
    ("request_events", "{\"type\":\"events\"}"),
    ("request_shutdown", "{\"type\":\"shutdown\"}"),
    ("response_0", "{\"type\":\"submitted\",\"job_id\":0}"),
    ("response_1", "{\"type\":\"job\",\"job\":{\"id\":3,\"name\":\"lstm-3\",\"model\":\"lstm\",\"phase\":\"Running\",\"steps_done\":1,\"steps\":4,\"node\":1,\"durability_disabled\":false}}"),
    ("response_2", "{\"type\":\"jobs\",\"jobs\":[{\"id\":3,\"name\":\"lstm-3\",\"model\":\"lstm\",\"phase\":\"Queued\",\"steps_done\":1,\"steps\":4,\"node\":null,\"durability_disabled\":false},{\"id\":3,\"name\":\"lstm-3\",\"model\":\"lstm\",\"phase\":\"Completed\",\"steps_done\":1,\"steps\":4,\"node\":0,\"durability_disabled\":false}]}"),
    ("response_3", "{\"type\":\"snapshot\",\"store\":{\"entries\":2,\"hits\":3,\"misses\":1,\"evictions\":0,\"evicted_bytes\":0,\"hit_rate\":0.75,\"snapshot\":\"{\\\"format\\\":\\\"x\\\"}\"}}"),
    ("response_4", "{\"type\":\"metrics\",\"text\":\"# TYPE c counter\\nc{l=\\\"v\\\"} 1\\n\"}"),
    ("response_5", "{\"type\":\"events\",\"events\":[{\"seq\":0,\"at\":2.0,\"clock\":\"Sim\",\"kind\":\"Place\",\"job\":3,\"node\":null,\"detail\":\"key=Conv2D/[4,8,8,3]\"}]}"),
    ("response_6", "{\"type\":\"bye\",\"report\":\"{}\"}"),
    ("response_7", "{\"type\":\"error\",\"error\":{\"kind\":\"Saturated\",\"message\":\"queue full\",\"retry_after_secs\":0.25}}"),
    ("response_8", "{\"type\":\"error\",\"error\":{\"kind\":\"UnknownModel\",\"message\":\"no model `x`\",\"retry_after_secs\":null}}"),
];

#[test]
fn serializer_bytes_are_pinned() {
    let actual = actual();
    let moved: Vec<&str> = actual
        .iter()
        .filter(|(name, text)| {
            EXPECTED
                .iter()
                .find(|(n, _)| n == name)
                .is_none_or(|(_, want)| want != text)
        })
        .map(|(name, _)| name.as_str())
        .collect();
    if !moved.is_empty() || actual.len() != EXPECTED.len() {
        let mut table = String::from("const EXPECTED: &[(&str, &str)] = &[\n");
        for (name, text) in &actual {
            table.push_str(&format!("    ({name:?}, {text:?}),\n"));
        }
        table.push_str("];\n");
        panic!(
            "serializer output moved for {moved:?} ({} cases, {} expected); recomputed:\n{table}",
            actual.len(),
            EXPECTED.len()
        );
    }
}
