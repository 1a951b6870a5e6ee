(* E9: wall-clock timing of the protocol substrates and the crypto
   primitives with Bechamel (ns per execution) — the one paper claim
   reproduced as a timing section rather than a table. `simbcast bench`
   runs it with every experiment, or alone under `timing`; `tables`
   skips it so the bench output stays deterministic. *)

open Bechamel

let protocol_bench name (protocol : Sb_sim.Protocol.t) ~n ~thresh =
  Test.make
    ~name:(Printf.sprintf "%s/n=%d" name n)
    (Staged.stage (fun () ->
         let rng = Sb_util.Rng.create 42 in
         let ctx = Sb_sim.Ctx.make ~rng ~n ~thresh ~k:16 () in
         let inputs = Array.init n (fun i -> Sb_sim.Msg.Bit (i mod 2 = 0)) in
         ignore (Sb_sim.Network.honest_run ctx ~rng ~protocol ~inputs)))

let crypto_benches =
  [
    Test.make ~name:"sha256/1KiB"
      (Staged.stage
         (let buf = String.make 1024 'x' in
          fun () -> ignore (Sb_crypto.Sha256.digest buf)));
    Test.make ~name:"pedersen-deal/n=8,t=3"
      (Staged.stage (fun () ->
           let rng = Sb_util.Rng.create 7 in
           ignore
             (Sb_crypto.Pedersen.deal rng ~threshold:3 ~parties:8 ~secret:Sb_crypto.Field.one)));
    Test.make ~name:"shamir-reconstruct/t=3"
      (Staged.stage
         (let rng = Sb_util.Rng.create 9 in
          let shares, _ =
            Sb_crypto.Shamir.share rng ~threshold:3 ~parties:8
              ~secret:(Sb_crypto.Field.of_int 5)
          in
          let subset = Array.to_list (Array.sub shares 0 4) in
          fun () -> ignore (Sb_crypto.Shamir.reconstruct subset)));
  ]

let timing_tests =
  let per_protocol =
    List.concat_map
      (fun (name, p) ->
        List.map (fun n -> protocol_bench name p ~n ~thresh:((n - 1) / 2)) [ 5; 8; 16 ])
      [
        ("ideal-fsb", Sb_protocols.Ideal_sb.protocol);
        ("naive-sequential", Sb_protocols.Naive.sequential);
        ("gennaro-constant", Sb_protocols.Gennaro.protocol);
        ("chor-rabin-log", Sb_protocols.Chor_rabin.protocol);
        ("cgma-vss", Sb_protocols.Cgma.protocol);
      ]
  in
  Test.make_grouped ~name:"E9" (crypto_benches @ per_protocol)

let run () =
  Format.printf "== E9: wall-clock timing (Bechamel; ns per execution) ==@.";
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
  let raw_results = Benchmark.all cfg instances timing_tests in
  let results = List.map (fun instance -> Analyze.all ols instance raw_results) instances in
  let results = Analyze.merge ols instances results in
  let table =
    Sb_util.Tabular.create ~title:"E9 timings" ~columns:[ "benchmark"; "ns/run"; "r^2" ]
  in
  let entries = ref [] in
  Hashtbl.iter
    (fun _instance tbl ->
      let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) tbl [] in
      let rows = List.sort (fun (a, _) (b, _) -> String.compare a b) rows in
      List.iter
        (fun (name, ols) ->
          let ns = match Analyze.OLS.estimates ols with Some [ e ] -> e | _ -> Float.nan in
          let r2 = match Analyze.OLS.r_square ols with Some r -> r | None -> Float.nan in
          Sb_util.Tabular.add_row table
            [ name; Printf.sprintf "%.0f" ns; Printf.sprintf "%.4f" r2 ];
          entries :=
            { Sb_obs.Report.bench_name = name; ns_per_run = ns; r_square = r2 } :: !entries)
        rows)
    results;
  Sb_util.Tabular.print table;
  List.rev !entries
