(* A scaled scenario: the epidemiologist's statistical audit the paper's
   §2.1 motivates ("permitted to read illnesses, most probably for
   statistical purpose, but forbidden to see patients' names").

   Generates a 200-patient hospital database, logs in as epidemiologist
   richard, and computes diagnosis statistics over the view — names are
   RESTRICTED, yet every figure is computable.  Then compares the three
   models' views (E11's metrics) and shows a patient session.

   Run with: dune exec examples/hospital_audit.exe *)

let config = { Workload.Gen_doc.default with patients = 200; seed = 7 }

let () =
  let doc = Workload.Gen_doc.generate config in
  let policy = Workload.Gen_policy.hospital config in
  Printf.printf "database: %d nodes, %d patients\n"
    (Xmldoc.Document.size doc - 1)
    config.patients;

  (* --- the epidemiologist's audit ------------------------------------- *)
  let flat = Xmldoc.Flat.of_document doc in
  let audit = Core.Session.login ~flat policy doc ~user:"richard" in
  let view = Core.Session.view audit in
  Printf.printf "richard's view: %d nodes (%d of them RESTRICTED)\n\n"
    (Core.View.visible_count view)
    (List.length (Core.Session.query audit "//RESTRICTED"));

  print_endline "diagnosis frequency over the view (names never revealed):";
  let diagnoses = Core.Session.query audit "//diagnosis/text()" in
  let table = Hashtbl.create 16 in
  List.iter
    (fun id ->
      let label = Option.value ~default:"?" (Xmldoc.Document.label view id) in
      Hashtbl.replace table label
        (1 + Option.value ~default:0 (Hashtbl.find_opt table label)))
    diagnoses;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) table []
  |> List.sort (fun (_, a) (_, b) -> Int.compare b a)
  |> List.iter (fun (diagnosis, count) ->
         Printf.printf "  %-14s %4d\n" diagnosis count);
  Printf.printf "  %-14s %4d\n" "(none posed)"
    (List.length (Core.Session.query audit "//diagnosis[not(node())]"));

  (* Cross-tabulation service x has-diagnosis, still on the view. *)
  print_endline "\npatients per service with a posed diagnosis:";
  List.iter
    (fun service ->
      let q =
        Printf.sprintf "/patients/*[service = '%s'][diagnosis/text()]" service
      in
      let n = List.length (Core.Session.query audit q) in
      if n > 0 then Printf.printf "  %-14s %4d\n" service n)
    Workload.Gen_doc.services;

  (* What richard cannot do: read a name, or write anything. *)
  Printf.printf "\nname probes on the view: %d matches\n"
    (List.length (Core.Session.query audit "/patients/franck"));
  let _, report =
    Core.Secure_update.apply audit
      (Xupdate.Op.update "//diagnosis[text() = 'influenza']" "redacted")
  in
  Printf.printf "attempted redaction: %d denied, %d applied\n"
    (List.length report.denied)
    (List.length report.relabelled);

  (* --- model comparison (E11) ----------------------------------------- *)
  print_endline "\nmodel comparison for richard (E11 metrics):";
  let comparison = Baselines.Metrics.compare_models audit in
  print_endline Baselines.Metrics.header;
  Format.printf "%a@." Baselines.Metrics.pp comparison;
  print_endline
    "(deny-subtree loses every readable node below a hidden name;\n\
     structure-preserving reveals the names it was told to hide)";

  (* --- a patient session ----------------------------------------------- *)
  let patient = List.nth (Workload.Gen_doc.patient_names config) 3 in
  let session = Core.Session.login ~flat policy doc ~user:patient in
  Printf.printf "\npatient %s sees %d nodes; the secretary sees %d\n" patient
    (Core.View.visible_count (Core.Session.view session))
    (Core.View.visible_count
       (Core.Session.view
          (Core.Session.login ~flat policy doc ~user:"beaufort")));
  Printf.printf "%s's own diagnosis: %s\n" patient
    (match Core.Session.query session "//diagnosis/text()" with
     | [ id ] ->
       Option.value ~default:"?"
         (Xmldoc.Document.label (Core.Session.view session) id)
     | [] -> "(none posed)"
     | _ -> "(multiple?)")
