let buf_add = Buffer.add_string

let class_name c = Printf.sprintf "c%d" c

(* Round-trip rendering, so [of_arff (to_arff ds) = ds] holds for
   every dataset: "%g" for the small integers most features are, "%.17g"
   when "%g" would lose bits. *)
let float_repr = Xentry_util.Json.float_repr

let to_arff ?(relation = "xentry") ds =
  let buf = Buffer.create 4096 in
  buf_add buf (Printf.sprintf "@relation %s\n\n" relation);
  Array.iter
    (fun name -> buf_add buf (Printf.sprintf "@attribute %s numeric\n" name))
    (Dataset.feature_names ds);
  let classes =
    String.concat ","
      (List.init (Dataset.n_classes ds) class_name)
  in
  buf_add buf (Printf.sprintf "@attribute class {%s}\n\n@data\n" classes);
  Array.iter
    (fun s ->
      Array.iter
        (fun v -> buf_add buf (float_repr v ^ ","))
        s.Dataset.features;
      buf_add buf (class_name s.Dataset.label);
      Buffer.add_char buf '\n')
    (Dataset.samples ds);
  Buffer.contents buf

let fail_at line msg = failwith (Printf.sprintf "line %d: %s" line msg)

let split_csv line = String.split_on_char ',' line |> List.map String.trim

let parse_class ~line s =
  if String.length s >= 2 && s.[0] = 'c' then
    match int_of_string_opt (String.sub s 1 (String.length s - 1)) with
    | Some c -> c
    | None -> fail_at line ("bad class label " ^ s)
  else
    match int_of_string_opt s with
    | Some c -> c
    | None -> fail_at line ("bad class label " ^ s)

let parse_sample ~line ~arity cells =
  if List.length cells <> arity + 1 then
    fail_at line
      (Printf.sprintf "expected %d fields, found %d" (arity + 1)
         (List.length cells));
  let rec split_last acc = function
    | [] -> fail_at line "empty record"
    | [ last ] -> (List.rev acc, last)
    | x :: rest -> split_last (x :: acc) rest
  in
  let features, cls = split_last [] cells in
  {
    Dataset.features =
      Array.of_list
        (List.map
           (fun s ->
             match float_of_string_opt s with
             | Some v -> v
             | None -> fail_at line ("bad numeric value " ^ s))
           features);
    label = parse_class ~line cls;
  }

let of_arff text =
  let lines = String.split_on_char '\n' text in
  let attributes = ref [] in
  let n_classes = ref 0 in
  let samples = ref [] in
  let in_data = ref false in
  List.iteri
    (fun i raw ->
      let line_no = i + 1 in
      let line = String.trim raw in
      if line = "" || (String.length line > 0 && line.[0] = '%') then ()
      else if !in_data then begin
        let arity = List.length !attributes in
        samples := parse_sample ~line:line_no ~arity (split_csv line) :: !samples
      end
      else
        let lower = String.lowercase_ascii line in
        if String.length lower >= 9 && String.sub lower 0 9 = "@relation" then ()
        else if String.length lower >= 5 && String.sub lower 0 5 = "@data" then
          in_data := true
        else if String.length lower >= 10 && String.sub lower 0 10 = "@attribute"
        then begin
          let rest = String.trim (String.sub line 10 (String.length line - 10)) in
          match String.index_opt rest ' ' with
          | None -> fail_at line_no "malformed @attribute"
          | Some sp ->
              let name = String.sub rest 0 sp in
              let kind =
                String.trim (String.sub rest sp (String.length rest - sp))
              in
              if name = "class" then begin
                let inner =
                  match (String.index_opt kind '{', String.index_opt kind '}') with
                  | Some a, Some b when b > a -> String.sub kind (a + 1) (b - a - 1)
                  | _ -> fail_at line_no "class attribute must be nominal"
                in
                n_classes := List.length (split_csv inner)
              end
              else attributes := name :: !attributes
        end
        else fail_at line_no ("unrecognized directive: " ^ line))
    lines;
  if !n_classes < 2 then failwith "no class attribute found";
  Dataset.create
    ~feature_names:(Array.of_list (List.rev !attributes))
    ~n_classes:!n_classes (List.rev !samples)

let to_csv ds =
  let buf = Buffer.create 4096 in
  buf_add buf
    (String.concat "," (Array.to_list (Dataset.feature_names ds)) ^ ",class\n");
  Array.iter
    (fun s ->
      Array.iter (fun v -> buf_add buf (float_repr v ^ ",")) s.Dataset.features;
      buf_add buf (string_of_int s.Dataset.label);
      Buffer.add_char buf '\n')
    (Dataset.samples ds);
  Buffer.contents buf

let of_csv text =
  match String.split_on_char '\n' text with
  | [] -> failwith "empty csv"
  | header :: rows ->
      let columns = split_csv header in
      let feature_names =
        match List.rev columns with
        | "class" :: rev_features -> Array.of_list (List.rev rev_features)
        | _ -> failwith "csv header must end with 'class'"
      in
      let arity = Array.length feature_names in
      let samples =
        List.concat
          (List.mapi
             (fun i row ->
               if String.trim row = "" then []
               else [ parse_sample ~line:(i + 2) ~arity (split_csv row) ])
             rows)
      in
      let n_classes =
        1 + List.fold_left (fun acc s -> max acc s.Dataset.label) 1 samples
      in
      Dataset.create ~feature_names ~n_classes samples

(* Write-temp-then-rename, same discipline as [Xentry_store.Artifact]:
   a crash mid-write leaves either the old file or nothing at [path],
   never a torn corpus. *)
let save path contents =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (match output_string oc contents with
  | () -> close_out oc
  | exception e ->
      close_out_noerr oc;
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e);
  try Sys.rename tmp path
  with e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))
