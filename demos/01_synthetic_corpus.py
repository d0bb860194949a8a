"""Generate a synthetic event-stream corpus and look inside it.

Each video concatenates a few events. An event is a fixed prototype vector
plus per-frame Gaussian noise, and the whole video slowly drifts through
feature space, so frames of one event cluster but are never identical.
The generator also returns the ground-truth boundaries (the first frame of
every new event), which is what makes desk-scale verification possible.
"""

import tempfile
from pathlib import Path

import numpy as np

from eventseg import SynthConfig, load_feature_file, save_feature_file, synth_generate

cfg = SynthConfig(num_videos=4, events_per_video=(3, 4), event_length=(20, 30),
                  feature_dim=16, num_prototypes=6, seed=42)
corpus, annotations = synth_generate(cfg)

print(f"generated {len(corpus)} videos:")
for seq, ann in zip(corpus, annotations):
    print(f"  {seq.video_id}: {seq.num_frames} frames, boundaries at {ann.boundaries}")

# Within-event frames stay close; frames from different events do not.
seq, ann = corpus[0], annotations[0]
features = seq.features / np.linalg.norm(seq.features, axis=1, keepdims=True)
b = ann.boundaries[0]
print(f"\ncosine(frame {b-5}, frame {b-1})  same event: "
      f"{features[b-5] @ features[b-1]:.3f}")
print(f"cosine(frame {b-1}, frame {b})    across boundary: "
      f"{features[b-1] @ features[b]:.3f}")

# Feature files round-trip byte-exactly through the binary format.
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "demo_video.csgf"
    save_feature_file(seq, path)
    again = load_feature_file(path)
print(f"\nsaved and reloaded {again.video_id}: "
      f"identical={np.array_equal(again.features, seq.features)}")
